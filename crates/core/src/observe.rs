//! Engine observability: typed events emitted by [`crate::EcoEngine`],
//! the [`EcoObserver`] trait for receiving them, and the
//! [`MetricsObserver`] aggregation behind `--stats-json`.
//!
//! Observers are attached with [`crate::EcoEngine::with_observer`]; the
//! engine pays nothing beyond a branch per event site when none are
//! attached (event payloads are built lazily).

use eco_sat::{Lit, SolveResult, Solver, TripReason};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The four phases of the engine flow (Fig. 2 of the paper).
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// CEGAR 2QBF check that the targets can rectify the design
    /// (Sec. 3.2).
    SufficiencyCheck,
    /// Structural pruning to a logic window (Sec. 3.3).
    Windowing,
    /// Per-target support computation, cube enumeration, and
    /// substitution (Secs. 3.4–3.6).
    PatchGeneration,
    /// Final combinational equivalence check.
    Verification,
}

impl Phase {
    /// All phases, in flow order.
    pub const ALL: [Phase; 4] = [
        Phase::SufficiencyCheck,
        Phase::Windowing,
        Phase::PatchGeneration,
        Phase::Verification,
    ];

    /// Stable snake_case name used in the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            Phase::SufficiencyCheck => "sufficiency_check",
            Phase::Windowing => "windowing",
            Phase::PatchGeneration => "patch_generation",
            Phase::Verification => "verification",
        }
    }
}

/// What a SAT call was issued for.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SatCallKind {
    /// 2QBF sufficiency check (either CEGAR solver).
    Qbf,
    /// Support feasibility query on expression (2).
    Support,
    /// `minimize_assumptions` recursion (Algorithm 1).
    Minimize,
    /// Onset enumeration / offset disjointness during cube enumeration.
    CubeEnumeration,
    /// The subset-search solver inside `SAT_prune` (not the feasibility
    /// oracle, which reports as [`SatCallKind::Support`]).
    SatPruneSearch,
    /// Equivalence queries during `CEGAR_min` resubstitution.
    CegarMin,
    /// Quantification-refinement queries against spurious witnesses.
    Refinement,
    /// Combinational equivalence checking.
    Cec,
}

impl SatCallKind {
    /// All kinds, in the order used by per-kind metric arrays.
    pub const ALL: [SatCallKind; 8] = [
        SatCallKind::Qbf,
        SatCallKind::Support,
        SatCallKind::Minimize,
        SatCallKind::CubeEnumeration,
        SatCallKind::SatPruneSearch,
        SatCallKind::CegarMin,
        SatCallKind::Refinement,
        SatCallKind::Cec,
    ];

    /// Stable snake_case name used in the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            SatCallKind::Qbf => "qbf",
            SatCallKind::Support => "support",
            SatCallKind::Minimize => "minimize",
            SatCallKind::CubeEnumeration => "cube_enumeration",
            SatCallKind::SatPruneSearch => "sat_prune_search",
            SatCallKind::CegarMin => "cegar_min",
            SatCallKind::Refinement => "refinement",
            SatCallKind::Cec => "cec",
        }
    }

    /// Position in [`SatCallKind::ALL`].
    pub fn index(self) -> usize {
        SatCallKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind is listed")
    }
}

/// A support-minimization step (Sec. 3.4.1).
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SupportStep {
    /// The divide-and-conquer `minimize_assumptions` pass finished.
    Algorithm1,
    /// A last-gasp greedy replacement was accepted.
    LastGasp,
}

impl SupportStep {
    /// Stable snake_case name used in traces and logs.
    pub fn name(self) -> &'static str {
        match self {
            SupportStep::Algorithm1 => "algorithm1",
            SupportStep::LastGasp => "last_gasp",
        }
    }
}

/// A rung of the per-target degradation ladder, from most capable to
/// cheapest: full SAT/CEGAR attempt → reduced-effort retry →
/// structural patch → skipped. [`EcoEvent::LadderStep`] announces each
/// descent; the starting (full) rung has no event.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LadderRung {
    /// Retrying with cheaper settings (`analyze_final` support, no
    /// last-gasp, tighter refinement/cube caps).
    DegradedRetry,
    /// Constructing a SAT-free structural patch.
    Structural,
    /// Giving up on the target; it keeps its current function.
    Skipped,
}

impl LadderRung {
    /// Stable snake_case name used in reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            LadderRung::DegradedRetry => "degraded_retry",
            LadderRung::Structural => "structural",
            LadderRung::Skipped => "skipped",
        }
    }
}

/// One engine event.
///
/// The enum is `#[non_exhaustive]`: downstream matches must carry a
/// wildcard arm so new telemetry can be added without a breaking
/// release.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub enum EcoEvent {
    /// A run began.
    RunStarted {
        /// Number of targets in the problem.
        num_targets: usize,
        /// The configured per-call conflict budget.
        per_call_conflicts: Option<u64>,
    },
    /// A phase began.
    PhaseStarted {
        /// Which phase.
        phase: Phase,
    },
    /// A phase completed.
    PhaseFinished {
        /// Which phase.
        phase: Phase,
        /// Wall-clock time spent in the phase.
        elapsed: Duration,
    },
    /// Patch computation for one target began.
    TargetStarted {
        /// Index into the original problem's target list.
        target_index: usize,
    },
    /// Patch computation for one target completed.
    TargetFinished {
        /// Index into the original problem's target list.
        target_index: usize,
        /// SAT calls attributed to the target (equals the
        /// [`crate::TargetPatchReport::sat_calls`] of its report).
        sat_calls: u64,
        /// Wall-clock time spent on the target.
        elapsed: Duration,
    },
    /// One SAT solver invocation, with per-call telemetry deltas.
    SatCall {
        /// What the call was for.
        kind: SatCallKind,
        /// `Some(i)` iff the call counts toward target `i`'s
        /// [`crate::TargetPatchReport::sat_calls`]; shared calls (QBF
        /// sufficiency, `SAT_prune` subset search, final CEC) carry
        /// `None`.
        target_index: Option<usize>,
        /// The verdict.
        result: SolveResult,
        /// Conflicts in this call.
        conflicts: u64,
        /// Decisions in this call.
        decisions: u64,
        /// Propagations in this call.
        propagations: u64,
        /// Wall-clock time of this call (solver timing is switched on
        /// automatically while observers are attached).
        elapsed: Duration,
    },
    /// The 2QBF CEGAR loop added a counterexample miter copy.
    QbfRefinement {
        /// Miter copies after the addition.
        copies: usize,
    },
    /// The engine refuted a spurious infeasibility witness and grew the
    /// quantification assignment set.
    QuantificationRefinement {
        /// Index into the original problem's target list.
        target_index: usize,
        /// Assignments after the refinement.
        assignments: usize,
    },
    /// A support-minimization step finished.
    SupportMinimizationStep {
        /// Target the support is for (`None` for standalone use of the
        /// support API).
        target_index: Option<usize>,
        /// Which step.
        step: SupportStep,
        /// Selected divisors after the step.
        support_size: usize,
    },
    /// A SAT budget ran out and the engine switched to the structural
    /// patch construction (Sec. 3.6).
    StructuralFallback {
        /// Index into the original problem's target list.
        target_index: usize,
    },
    /// The run's `ResourceGovernor` tripped (deadline, global budget,
    /// cancellation) or injected a fault. Emitted once per newly
    /// observed sticky reason and once per injected fault.
    GovernorTripped {
        /// Why the governor stopped (or failed) solver calls.
        reason: TripReason,
    },
    /// The per-target degradation ladder moved down a rung.
    LadderStep {
        /// Index into the original problem's target list.
        target_index: usize,
        /// The rung the engine is descending to.
        rung: LadderRung,
    },
    /// One `CEGAR_min` max-flow resubstitution round completed.
    CegarMinRound {
        /// Target the patch is for (`None` for standalone use).
        target_index: Option<usize>,
        /// SAT calls spent proving equivalences this round.
        sat_calls: u64,
        /// Cost of the rewritten support.
        cost: u64,
    },
    /// The run belongs to a serving-layer request (emitted right after
    /// [`EcoEvent::RunStarted`] when the engine was built with
    /// [`crate::EcoEngine::with_request_id`]); gives every span of the
    /// run a request-id dimension.
    RequestTagged {
        /// The caller-chosen request id.
        request_id: String,
    },
    /// A content-hash cache layer was consulted (engine built with
    /// [`crate::EcoEngine::with_cache`]).
    CacheQuery {
        /// Which layer.
        layer: crate::cache::CacheLayer,
        /// `true` on a hit (the derived artifact was reused).
        hit: bool,
    },
    /// Counter report of the test-equivalence-class layer for one
    /// target: the `SAT_prune` support probes and `CEGAR_min`
    /// equivalence checks it answered without a solver call.
    /// Aggregated into [`SweepCounters`] and [`ClassesCounters`].
    ClassesReport {
        /// Target the class layer served (`None` for shared activities).
        target_index: Option<usize>,
        /// `Sat` answers replayed from stored witness pairs.
        oracle_hits: u64,
        /// `Unsat` answers inherited from proven-feasible subsets, plus
        /// `CEGAR_min` checks whose disagreement a stored
        /// counterexample already witnessed.
        inherited_answers: u64,
        /// Partition refinements from replayed witness models.
        refinement_rounds: u64,
        /// Witness patterns carried across refinement rounds and accepted
        /// on replay.
        witness_replays: u64,
    },
    /// The run completed (success paths only; errors abort the stream).
    RunFinished {
        /// Total wall-clock time.
        elapsed: Duration,
    },
}

/// Receives engine events. Implementations must be cheap: the engine
/// calls [`EcoObserver::on_event`] synchronously on its own thread.
pub trait EcoObserver {
    /// Called once per event, in emission order.
    fn on_event(&mut self, event: &EcoEvent);
}

/// An observer that discards every event. Useful as an explicit "no
/// telemetry" choice and as the baseline for overhead measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullObserver;

impl EcoObserver for NullObserver {
    fn on_event(&mut self, _event: &EcoEvent) {}
}

/// The engine-internal fan-out point: a cheap-to-clone handle over the
/// attached observer sinks. Event payloads are only constructed when at
/// least one sink is attached.
#[derive(Clone, Default)]
pub(crate) struct ObserverHandle {
    sinks: Vec<Arc<Mutex<dyn EcoObserver + Send>>>,
}

impl ObserverHandle {
    pub(crate) fn new(sinks: Vec<Arc<Mutex<dyn EcoObserver + Send>>>) -> ObserverHandle {
        ObserverHandle { sinks }
    }

    pub(crate) fn is_active(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Builds the event (lazily) and delivers it to every sink.
    pub(crate) fn emit(&self, make: impl FnOnce() -> EcoEvent) {
        if self.sinks.is_empty() {
            return;
        }
        let event = make();
        for sink in &self.sinks {
            if let Ok(mut observer) = sink.lock() {
                observer.on_event(&event);
            }
        }
    }

    /// Runs one solver call and reports it as an [`EcoEvent::SatCall`]
    /// carrying the call's counter deltas. Unobserved runs skip the
    /// statistics snapshot and never switch on the solver's wall-clock
    /// timing.
    pub(crate) fn solve(
        &self,
        solver: &mut Solver,
        assumptions: &[Lit],
        kind: SatCallKind,
        target_index: Option<usize>,
    ) -> SolveResult {
        if !self.is_active() {
            return solver.solve(assumptions);
        }
        solver.set_timing(true);
        let before = *solver.stats();
        let result = solver.solve(assumptions);
        let delta = solver.stats().since(before);
        self.emit(|| EcoEvent::SatCall {
            kind,
            target_index,
            result,
            conflicts: delta.conflicts,
            decisions: delta.decisions,
            propagations: delta.propagations,
            elapsed: delta.solve_time,
        });
        result
    }
}

impl std::fmt::Debug for ObserverHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserverHandle")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

/// Microseconds of a `Duration`, saturating at `u64::MAX`: the one
/// conversion behind every `*_us` field in metrics, traces and
/// journals.
pub fn duration_us(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// Number of [`Histogram`] buckets: one per bound in
/// [`Histogram::BOUNDS`] plus the overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = Histogram::BOUNDS.len() + 1;

/// A fixed-bucket histogram with a running sum, used for every
/// distribution the system reports: per-call SAT conflicts and
/// latencies in [`RunMetrics`], and `eco_patchd` stage latencies.
///
/// Buckets follow one 1-2-5 series ([`Histogram::BOUNDS`], inclusive
/// upper bounds); values above the last bound land in the overflow
/// bucket. Microsecond latencies therefore span 1µs to 10s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    sum: u64,
}

impl Histogram {
    /// Inclusive upper bounds of the buckets, a 1-2-5 series from 1 to
    /// 10^7.
    pub const BOUNDS: [u64; 22] = [
        1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
        200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
    ];

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Histogram::BOUNDS.partition_point(|&bound| bound < value)] += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Adds every observation of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (total, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *total += b;
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Per-bucket (non-cumulative) counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The upper bound of the smallest bucket whose cumulative count
    /// reaches rank `ceil(q * count)`; the overflow bucket reports the
    /// last bound. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        let bucket = self.buckets.iter().position(|&b| {
            seen += b;
            seen >= rank
        })?;
        Some(Histogram::BOUNDS[bucket.min(Histogram::BOUNDS.len() - 1)])
    }
}

/// Wall-clock time of one phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseMetrics {
    /// Which phase.
    pub phase: Phase,
    /// Time spent in it.
    pub elapsed: Duration,
}

/// Aggregated telemetry for one target.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TargetMetrics {
    /// Index into the original problem's target list.
    pub target_index: usize,
    /// SAT calls per the target's [`crate::TargetPatchReport`].
    pub sat_calls: u64,
    /// SAT calls observed as [`EcoEvent::SatCall`] events attributed to
    /// this target. The report counter also tallies the calls the
    /// `SAT_prune` class layer answered without the solver (keeping
    /// reports byte-identical to a run without the layer), so
    /// `sat_calls - observed_sat_calls` is exactly this target's share
    /// of [`SweepCounters::oracle_hits`] plus
    /// [`ClassesCounters::inherited_answers`]. Kept separate so the
    /// accounting is auditable from the JSON alone.
    pub observed_sat_calls: u64,
    /// Total conflicts across the attributed calls.
    pub conflicts: u64,
    /// Wall-clock time spent on the target.
    pub elapsed: Duration,
    /// Solver wall-clock time across the attributed calls.
    pub sat_time: Duration,
    /// Per-call conflict histogram.
    pub conflict_histogram: Histogram,
    /// Per-call latency histogram, µs.
    pub latency_histogram: Histogram,
}

/// Aggregated telemetry for one [`SatCallKind`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindMetrics {
    /// Calls observed with this kind.
    pub calls: u64,
    /// Total conflicts across those calls.
    pub conflicts: u64,
    /// Total solver wall-clock time across those calls.
    pub time: Duration,
    /// Per-call conflict histogram.
    pub conflict_histogram: Histogram,
    /// Per-call latency histogram, µs.
    pub latency_histogram: Histogram,
}

/// Aggregated SAT-call telemetry across a whole run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SatCallMetrics {
    /// Total calls observed.
    pub total: u64,
    /// Total conflicts.
    pub conflicts: u64,
    /// Total decisions.
    pub decisions: u64,
    /// Total propagations.
    pub propagations: u64,
    /// Total solver wall-clock time.
    pub time: Duration,
    /// Per-kind breakdown, parallel to [`SatCallKind::ALL`].
    pub by_kind: [KindMetrics; 8],
    /// Per-call conflict histogram.
    pub conflict_histogram: Histogram,
    /// Per-call latency histogram, µs.
    pub latency_histogram: Histogram,
}

/// How much of the per-call conflict budget the run actually used.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BudgetMetrics {
    /// The configured budget.
    pub per_call_conflicts: u64,
    /// Largest single-call fraction `conflicts / budget`.
    pub max_fraction: f64,
    /// Mean fraction over all calls.
    pub mean_fraction: f64,
}

/// Per-run cache hit/miss counters (schema v5), aggregated from
/// [`EcoEvent::CacheQuery`] events. The engine fills the window / CNF
/// / target layers; the daemon fills the netlist and outcome layers
/// when it serializes per-request metrics. All zero when no cache is
/// attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Parsed-netlist layer hits (daemon-side).
    pub netlist_hits: u64,
    /// Parsed-netlist layer misses (daemon-side).
    pub netlist_misses: u64,
    /// Window-extraction layer hits.
    pub window_hits: u64,
    /// Window-extraction layer misses.
    pub window_misses: u64,
    /// CNF(miter)-build layer hits.
    pub cnf_hits: u64,
    /// CNF(miter)-build layer misses.
    pub cnf_misses: u64,
    /// Solved-target layer hits.
    pub target_hits: u64,
    /// Solved-target layer misses.
    pub target_misses: u64,
    /// Full-outcome layer hits (daemon-side).
    pub outcome_hits: u64,
    /// Full-outcome layer misses (daemon-side).
    pub outcome_misses: u64,
}

/// Witness-replay counter of the `SAT_prune` class layer, aggregated
/// from [`EcoEvent::ClassesReport`] events. Zero outside `SAT_prune`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepCounters {
    /// Support-feasibility probes answered `Sat` from a stored witness
    /// pair (no solver call issued).
    pub oracle_hits: u64,
}

/// Run-wide test-equivalence-class counters, aggregated from
/// [`EcoEvent::ClassesReport`] events. Zero outside `SAT_prune`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassesCounters {
    /// Probes answered without a solver call: `Unsat` answers inherited
    /// by supersets of proven-feasible subsets, plus `CEGAR_min` checks
    /// whose disagreement a stored counterexample already witnessed.
    pub inherited_answers: u64,
    /// Witness models from real calls absorbed into the pattern store.
    pub refinement_rounds: u64,
    /// Witness patterns carried across refinement rounds and accepted
    /// on replay.
    pub witness_replays: u64,
}

impl CacheCounters {
    /// Records one [`EcoEvent::CacheQuery`].
    pub fn record(&mut self, layer: crate::cache::CacheLayer, hit: bool) {
        use crate::cache::CacheLayer;
        let slot = match layer {
            CacheLayer::Netlist => {
                if hit {
                    &mut self.netlist_hits
                } else {
                    &mut self.netlist_misses
                }
            }
            CacheLayer::Window => {
                if hit {
                    &mut self.window_hits
                } else {
                    &mut self.window_misses
                }
            }
            CacheLayer::Cnf => {
                if hit {
                    &mut self.cnf_hits
                } else {
                    &mut self.cnf_misses
                }
            }
            CacheLayer::Target => {
                if hit {
                    &mut self.target_hits
                } else {
                    &mut self.target_misses
                }
            }
            CacheLayer::Outcome => {
                if hit {
                    &mut self.outcome_hits
                } else {
                    &mut self.outcome_misses
                }
            }
        };
        *slot += 1;
    }
}

/// Serializable aggregate of one engine run, built by
/// [`MetricsObserver`] and attached to
/// [`crate::EcoOutcome::metrics`] when the engine was configured with
/// [`crate::EcoEngine::with_metrics`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// The serving-layer request id the run was tagged with
    /// ([`EcoEvent::RequestTagged`]), `None` for untagged runs.
    pub request_id: Option<String>,
    /// Number of targets in the problem.
    pub num_targets: usize,
    /// The configured per-call conflict budget.
    pub per_call_conflicts: Option<u64>,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Per-phase durations, in completion order.
    pub phases: Vec<PhaseMetrics>,
    /// Per-target telemetry, in processing order (targets that became
    /// trivially dead never start and are absent).
    pub targets: Vec<TargetMetrics>,
    /// Run-wide SAT-call telemetry.
    pub sat_calls: SatCallMetrics,
    /// Budget consumption, when a budget was configured.
    pub budget: Option<BudgetMetrics>,
    /// 2QBF CEGAR counterexample copies added.
    pub qbf_refinements: u64,
    /// Quantification-refinement iterations.
    pub quantification_refinements: u64,
    /// Support-minimization steps (Algorithm 1 passes plus accepted
    /// last-gasp replacements).
    pub support_minimization_steps: u64,
    /// Targets that fell back to the structural construction.
    pub structural_fallbacks: u64,
    /// `CEGAR_min` resubstitution rounds.
    pub cegar_min_rounds: u64,
    /// Governor trips and injected faults observed
    /// ([`EcoEvent::GovernorTripped`]).
    pub governor_trips: u64,
    /// Degradation-ladder descents ([`EcoEvent::LadderStep`]).
    pub ladder_steps: u64,
    /// Cache hit/miss counters ([`EcoEvent::CacheQuery`]); all zero
    /// when no cache is attached.
    pub cache: CacheCounters,
    /// Witness replays of the `SAT_prune` class layer.
    pub sweep: SweepCounters,
    /// Inherited answers of the `SAT_prune` class layer.
    pub classes: ClassesCounters,
}

fn push_histogram(out: &mut String, histogram: &Histogram) {
    out.push('[');
    for (i, c) in histogram.buckets().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{c}");
    }
    out.push(']');
}

fn push_json_string(out: &mut String, text: &str) {
    out.push('"');
    out.push_str(&crate::json::escape_json(text));
    out.push('"');
}

impl RunMetrics {
    /// Serializes to the stable JSON schema documented in
    /// `EXPERIMENTS.md` (schema_version 12, whose histogram arrays
    /// carry the [`HISTOGRAM_BUCKETS`] buckets of [`Histogram`]). Key order is fixed; durations
    /// are integer microseconds; fractions carry six decimal places.
    pub fn to_json(&self) -> String {
        let opt_u64 = |v: Option<u64>| match v {
            Some(x) => x.to_string(),
            None => "null".to_string(),
        };
        let mut s = String::new();
        s.push_str("{\"schema_version\":12");
        match &self.request_id {
            Some(id) => {
                s.push_str(",\"request_id\":");
                push_json_string(&mut s, id);
            }
            None => s.push_str(",\"request_id\":null"),
        }
        s.push_str(&format!(",\"num_targets\":{}", self.num_targets));
        s.push_str(&format!(
            ",\"per_call_conflicts\":{}",
            opt_u64(self.per_call_conflicts)
        ));
        s.push_str(&format!(",\"elapsed_us\":{}", duration_us(self.elapsed)));
        s.push_str(",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"phase\":");
            push_json_string(&mut s, p.phase.name());
            s.push_str(&format!(",\"elapsed_us\":{}}}", duration_us(p.elapsed)));
        }
        s.push_str("],\"targets\":[");
        for (i, t) in self.targets.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"target_index\":{},\"sat_calls\":{},\"observed_sat_calls\":{},\
                 \"conflicts\":{},\"elapsed_us\":{},\"sat_time_us\":{},\"conflict_histogram\":",
                t.target_index,
                t.sat_calls,
                t.observed_sat_calls,
                t.conflicts,
                duration_us(t.elapsed),
                duration_us(t.sat_time)
            ));
            push_histogram(&mut s, &t.conflict_histogram);
            s.push_str(",\"latency_histogram\":");
            push_histogram(&mut s, &t.latency_histogram);
            s.push('}');
        }
        s.push_str("],\"sat_calls\":{");
        s.push_str(&format!(
            "\"total\":{},\"conflicts\":{},\"decisions\":{},\"propagations\":{},\"time_us\":{}",
            self.sat_calls.total,
            self.sat_calls.conflicts,
            self.sat_calls.decisions,
            self.sat_calls.propagations,
            duration_us(self.sat_calls.time)
        ));
        s.push_str(",\"by_kind\":{");
        for (i, kind) in SatCallKind::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let k = &self.sat_calls.by_kind[i];
            push_json_string(&mut s, kind.name());
            s.push_str(&format!(
                ":{{\"calls\":{},\"conflicts\":{},\"time_us\":{},\"conflict_histogram\":",
                k.calls,
                k.conflicts,
                duration_us(k.time)
            ));
            push_histogram(&mut s, &k.conflict_histogram);
            s.push_str(",\"latency_histogram\":");
            push_histogram(&mut s, &k.latency_histogram);
            s.push('}');
        }
        s.push_str("},\"conflict_histogram\":");
        push_histogram(&mut s, &self.sat_calls.conflict_histogram);
        s.push_str(",\"latency_histogram\":");
        push_histogram(&mut s, &self.sat_calls.latency_histogram);
        s.push('}');
        match &self.budget {
            Some(b) => s.push_str(&format!(
                ",\"budget\":{{\"per_call_conflicts\":{},\"max_fraction\":{:.6},\
                 \"mean_fraction\":{:.6}}}",
                b.per_call_conflicts, b.max_fraction, b.mean_fraction
            )),
            None => s.push_str(",\"budget\":null"),
        }
        s.push_str(&format!(
            ",\"counters\":{{\"qbf_refinements\":{},\"quantification_refinements\":{},\
             \"support_minimization_steps\":{},\"structural_fallbacks\":{},\
             \"cegar_min_rounds\":{},\"governor_trips\":{},\"ladder_steps\":{}}}",
            self.qbf_refinements,
            self.quantification_refinements,
            self.support_minimization_steps,
            self.structural_fallbacks,
            self.cegar_min_rounds,
            self.governor_trips,
            self.ladder_steps
        ));
        let c = &self.cache;
        s.push_str(&format!(
            ",\"cache\":{{\"netlist_hits\":{},\"netlist_misses\":{},\"window_hits\":{},\
             \"window_misses\":{},\"cnf_hits\":{},\"cnf_misses\":{},\"target_hits\":{},\
             \"target_misses\":{},\"outcome_hits\":{},\"outcome_misses\":{}}}",
            c.netlist_hits,
            c.netlist_misses,
            c.window_hits,
            c.window_misses,
            c.cnf_hits,
            c.cnf_misses,
            c.target_hits,
            c.target_misses,
            c.outcome_hits,
            c.outcome_misses
        ));
        let c = &self.classes;
        s.push_str(&format!(
            ",\"sweep\":{{\"oracle_hits\":{}}},\
             \"classes\":{{\"inherited_answers\":{},\"refinement_rounds\":{},\
             \"witness_replays\":{}}}",
            self.sweep.oracle_hits, c.inherited_answers, c.refinement_rounds, c.witness_replays
        ));
        s.push('}');
        s
    }
}

/// Aggregates the event stream into [`RunMetrics`]. Needs no clock of
/// its own: all durations arrive inside the events.
#[derive(Clone, Debug, Default)]
pub struct MetricsObserver {
    metrics: RunMetrics,
    fraction_sum: f64,
    budgeted_calls: u64,
}

impl MetricsObserver {
    /// Creates an empty aggregator.
    pub fn new() -> MetricsObserver {
        MetricsObserver::default()
    }

    /// The metrics accumulated so far (final after
    /// [`EcoEvent::RunFinished`]).
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    fn target_entry(&mut self, target_index: usize) -> &mut TargetMetrics {
        if let Some(pos) = self
            .metrics
            .targets
            .iter()
            .position(|t| t.target_index == target_index)
        {
            return &mut self.metrics.targets[pos];
        }
        self.metrics.targets.push(TargetMetrics {
            target_index,
            ..TargetMetrics::default()
        });
        self.metrics.targets.last_mut().expect("just pushed")
    }
}

impl EcoObserver for MetricsObserver {
    fn on_event(&mut self, event: &EcoEvent) {
        match *event {
            EcoEvent::RunStarted {
                num_targets,
                per_call_conflicts,
            } => {
                self.metrics.num_targets = num_targets;
                self.metrics.per_call_conflicts = per_call_conflicts;
            }
            EcoEvent::PhaseFinished { phase, elapsed } => {
                self.metrics.phases.push(PhaseMetrics { phase, elapsed });
            }
            EcoEvent::TargetStarted { target_index } => {
                self.target_entry(target_index);
            }
            EcoEvent::TargetFinished {
                target_index,
                sat_calls,
                elapsed,
                ..
            } => {
                let entry = self.target_entry(target_index);
                entry.sat_calls = sat_calls;
                entry.elapsed = elapsed;
            }
            EcoEvent::SatCall {
                kind,
                target_index,
                conflicts,
                decisions,
                propagations,
                elapsed,
                ..
            } => {
                let us = duration_us(elapsed);
                let sc = &mut self.metrics.sat_calls;
                sc.total += 1;
                sc.conflicts += conflicts;
                sc.decisions += decisions;
                sc.propagations += propagations;
                sc.time += elapsed;
                let k = &mut sc.by_kind[kind.index()];
                k.calls += 1;
                k.conflicts += conflicts;
                k.time += elapsed;
                k.conflict_histogram.record(conflicts);
                k.latency_histogram.record(us);
                sc.conflict_histogram.record(conflicts);
                sc.latency_histogram.record(us);
                if let Some(budget) = self.metrics.per_call_conflicts {
                    if budget > 0 {
                        let fraction = conflicts as f64 / budget as f64;
                        self.fraction_sum += fraction;
                        self.budgeted_calls += 1;
                        let b = self.metrics.budget.get_or_insert(BudgetMetrics {
                            per_call_conflicts: budget,
                            max_fraction: 0.0,
                            mean_fraction: 0.0,
                        });
                        if fraction > b.max_fraction {
                            b.max_fraction = fraction;
                        }
                    }
                }
                if let Some(ti) = target_index {
                    let entry = self.target_entry(ti);
                    entry.observed_sat_calls += 1;
                    entry.conflicts += conflicts;
                    entry.sat_time += elapsed;
                    entry.conflict_histogram.record(conflicts);
                    entry.latency_histogram.record(us);
                }
            }
            EcoEvent::QbfRefinement { .. } => self.metrics.qbf_refinements += 1,
            EcoEvent::QuantificationRefinement { .. } => {
                self.metrics.quantification_refinements += 1;
            }
            EcoEvent::SupportMinimizationStep { .. } => {
                self.metrics.support_minimization_steps += 1;
            }
            EcoEvent::StructuralFallback { .. } => self.metrics.structural_fallbacks += 1,
            EcoEvent::CegarMinRound { .. } => self.metrics.cegar_min_rounds += 1,
            EcoEvent::GovernorTripped { .. } => self.metrics.governor_trips += 1,
            EcoEvent::LadderStep { .. } => self.metrics.ladder_steps += 1,
            EcoEvent::RequestTagged { ref request_id } => {
                self.metrics.request_id = Some(request_id.clone());
            }
            EcoEvent::CacheQuery { layer, hit } => self.metrics.cache.record(layer, hit),
            EcoEvent::ClassesReport {
                oracle_hits,
                inherited_answers,
                refinement_rounds,
                witness_replays,
                ..
            } => {
                self.metrics.sweep.oracle_hits += oracle_hits;
                let c = &mut self.metrics.classes;
                c.inherited_answers += inherited_answers;
                c.refinement_rounds += refinement_rounds;
                c.witness_replays += witness_replays;
            }
            EcoEvent::RunFinished { elapsed } => {
                self.metrics.elapsed = elapsed;
                if let Some(b) = &mut self.metrics.budget {
                    if self.budgeted_calls > 0 {
                        b.mean_fraction = self.fraction_sum / self.budgeted_calls as f64;
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_are_consistent() {
        for (i, kind) in SatCallKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        let names: std::collections::HashSet<&str> =
            SatCallKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names.len(),
            SatCallKind::ALL.len(),
            "names must be distinct"
        );
    }

    #[test]
    fn histogram_buckets_and_totals_accumulate() {
        let mut h = Histogram::default();
        h.record(1); // bucket 0 (<= 1)
        h.record(3); // bucket 2 (<= 5)
        h.record(10_000_001); // overflow bucket
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 10_000_005);
        let buckets = h.buckets();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[2], 1);
        assert_eq!(buckets[HISTOGRAM_BUCKETS - 1], 1);
        let mut merged = Histogram::default();
        merged.record(0);
        merged.merge(&h);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.buckets()[0], 2);
        assert_eq!(merged.sum(), 10_000_005);
    }

    #[test]
    fn quantiles_saturate_at_the_overflow_bucket() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), None, "empty histograms have no quantiles");
        h.record(u64::MAX);
        assert_eq!(
            h.quantile(0.99),
            Some(10_000_000),
            "overflow reports the last bound"
        );
    }

    #[test]
    fn inactive_handle_skips_payload_construction() {
        let handle = ObserverHandle::default();
        assert!(!handle.is_active());
        handle.emit(|| panic!("payload must not be built without sinks"));
    }

    #[test]
    fn metrics_aggregate_sat_calls_and_budget() {
        let mut m = MetricsObserver::new();
        m.on_event(&EcoEvent::RunStarted {
            num_targets: 1,
            per_call_conflicts: Some(100),
        });
        m.on_event(&EcoEvent::TargetStarted { target_index: 0 });
        m.on_event(&EcoEvent::SatCall {
            kind: SatCallKind::Support,
            target_index: Some(0),
            result: SolveResult::Unsat,
            conflicts: 50,
            decisions: 7,
            propagations: 20,
            elapsed: Duration::from_micros(30),
        });
        m.on_event(&EcoEvent::SatCall {
            kind: SatCallKind::Cec,
            target_index: None,
            result: SolveResult::Unsat,
            conflicts: 100,
            decisions: 3,
            propagations: 10,
            elapsed: Duration::from_micros(400),
        });
        m.on_event(&EcoEvent::TargetFinished {
            target_index: 0,
            sat_calls: 1,
            elapsed: Duration::from_micros(5),
        });
        m.on_event(&EcoEvent::RunFinished {
            elapsed: Duration::from_micros(9),
        });
        let r = m.metrics();
        assert_eq!(r.sat_calls.total, 2);
        assert_eq!(r.sat_calls.conflicts, 150);
        assert_eq!(r.sat_calls.time, Duration::from_micros(430));
        let support = &r.sat_calls.by_kind[SatCallKind::Support.index()];
        assert_eq!(support.calls, 1);
        assert_eq!(support.conflicts, 50);
        assert_eq!(support.time, Duration::from_micros(30));
        assert_eq!(
            support.latency_histogram.buckets()[5],
            1,
            "30µs is in (20, 50]"
        );
        assert_eq!(r.sat_calls.by_kind[SatCallKind::Cec.index()].calls, 1);
        assert_eq!(r.sat_calls.latency_histogram.count(), 2);
        assert_eq!(r.targets.len(), 1);
        assert_eq!(r.targets[0].observed_sat_calls, 1);
        assert_eq!(r.targets[0].sat_calls, 1);
        assert_eq!(r.targets[0].conflicts, 50);
        assert_eq!(r.targets[0].sat_time, Duration::from_micros(30));
        let b = r.budget.expect("budget configured");
        assert!((b.max_fraction - 1.0).abs() < 1e-12);
        assert!((b.mean_fraction - 0.75).abs() < 1e-12);
    }

    #[test]
    fn json_has_stable_shape() {
        let m = RunMetrics {
            num_targets: 2,
            per_call_conflicts: None,
            elapsed: Duration::from_micros(42),
            ..RunMetrics::default()
        };
        let json = m.to_json();
        assert!(json.starts_with("{\"schema_version\":12"));
        assert!(json.contains("\"request_id\":null"));
        assert!(json.contains("\"cache\":{\"netlist_hits\":0"));
        assert!(json.contains(
            "\"sweep\":{\"oracle_hits\":0},\
             \"classes\":{\"inherited_answers\":0,\"refinement_rounds\":0,\
             \"witness_replays\":0}"
        ));
        assert!(json.contains("\"per_call_conflicts\":null"));
        assert!(!json.contains("\"jobs\"") && !json.contains("\"workers\""));
        assert!(json.contains("\"elapsed_us\":42"));
        assert!(json.contains("\"time_us\":0"));
        assert!(json.contains(&format!(
            "\"latency_histogram\":[{}]",
            ["0"; HISTOGRAM_BUCKETS].join(",")
        )));
        assert!(json.contains("\"budget\":null"));
        assert!(json.ends_with("}"));
    }
}
