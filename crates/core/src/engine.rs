//! The ECO engine: the full flow of Fig. 2 — sufficiency check,
//! windowing, per-target quantification, support computation, cube
//! enumeration, structural fallback, substitution, and verification.

use crate::cache::{CacheLayer, CacheTable, CachedSolve, EcoCache, Lookup};
use crate::cec::{check_outputs_equivalence_observed, CecResult};
use crate::cegar_min::cegar_min_observed;
use crate::classes::EquivClasses;
use crate::cnf::CnfEncoder;
use crate::cubes::enumerate_patch_sop_observed;
use crate::error::EcoError;
use crate::exact::{sat_prune_support, SatPruneOptions};
use crate::miter::{EcoMiter, QuantifiedMiter};
use crate::observe::{
    ClassesCounters, EcoEvent, EcoObserver, LadderRung, MetricsObserver, ObserverHandle, Phase,
    RunMetrics, SatCallKind,
};
use crate::problem::EcoProblem;
use crate::qbf::{check_targets_sufficient_observed, QbfOutcome};
use crate::snapshot::{cone_hash, hash_aig, hash_bytes, ContentHasher, ProblemSnapshot};
use crate::structural::structural_patch;
use crate::support::{support_solver_for, SupportResult, SupportSolver};
use crate::window::{
    compute_divisors, compute_window, independent_targets, per_target_outputs, Window,
};
use eco_aig::{factor_sop, Aig, AigLit, NodeId, NodePatch};
use eco_sat::{ResourceGovernor, SolveResult, Solver, TripReason};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How patch supports are computed (the three columns of Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum SupportMethod {
    /// Baseline: one UNSAT call, support from the solver's final
    /// conflict (`analyze_final`) — the paper's "w/o
    /// minimize_assumptions".
    AnalyzeFinal,
    /// `minimize_assumptions` (Algorithm 1) with the last-gasp greedy
    /// improvement — the contest-winning configuration.
    MinimizeAssumptions,
    /// `SAT_prune` exact minimum-cost search seeded by
    /// `minimize_assumptions` (Sec. 3.4.2).
    SatPrune,
}

impl SupportMethod {
    /// Every method, in Table 1 column order.
    pub const ALL: [SupportMethod; 3] = [
        SupportMethod::AnalyzeFinal,
        SupportMethod::MinimizeAssumptions,
        SupportMethod::SatPrune,
    ];

    /// The method's CLI and wire name: `baseline`, `minimize` or
    /// `prune`.
    pub fn name(self) -> &'static str {
        match self {
            SupportMethod::AnalyzeFinal => "baseline",
            SupportMethod::MinimizeAssumptions => "minimize",
            SupportMethod::SatPrune => "prune",
        }
    }

    /// Parses a [`SupportMethod::name`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted names for anything else.
    pub fn from_name(name: &str) -> Result<SupportMethod, String> {
        SupportMethod::ALL
            .into_iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| {
                format!("unknown method {name:?} (expected baseline, minimize, or prune)")
            })
    }
}

/// Engine configuration.
///
/// Marked `#[non_exhaustive]`: construct it with [`EcoOptions::default`]
/// and mutate fields, or use [`EcoOptions::builder`] for a chainable
/// API. Struct-literal construction outside this crate does not
/// compile, which lets new knobs land without a semver break.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct EcoOptions {
    /// Support computation method.
    pub method: SupportMethod,
    /// Apply the max-flow `CEGAR_min` resubstitution to structural
    /// patches (Sec. 3.6.3).
    pub cegar_min: bool,
    /// Conflict budget per SAT call (`None` = unlimited). Exhaustion
    /// triggers the structural fallback when enabled.
    pub per_call_conflicts: Option<u64>,
    /// Up to this many *remaining* targets, quantification expands all
    /// `2^r` assignments; above it, QBF certificates are used.
    pub exact_quantification_threshold: usize,
    /// Derive a structural patch when SAT budgets run out. This also
    /// enables the full per-target degradation ladder: failures are
    /// isolated per target (`Degraded`/`Skipped` dispositions) instead
    /// of aborting the run.
    pub structural_fallback: bool,
    /// `SAT_prune` sub-options.
    pub sat_prune: SatPruneOptions,
    /// Run the final equivalence check.
    pub verify: bool,
}

impl Default for EcoOptions {
    fn default() -> EcoOptions {
        EcoOptions {
            method: SupportMethod::MinimizeAssumptions,
            cegar_min: true,
            per_call_conflicts: Some(2_000_000),
            exact_quantification_threshold: 6,
            structural_fallback: true,
            sat_prune: SatPruneOptions::default(),
            verify: true,
        }
    }
}

/// Iteration cap for the 2QBF sufficiency check.
const QBF_MAX_ITERATIONS: usize = 512;

/// Cap on candidate divisors per target (cheapest kept).
const MAX_DIVISORS: usize = 3_000;

/// Conflict budget for `CEGAR_min` equivalence queries. Separate from
/// [`EcoOptions::per_call_conflicts`]: the paper's structural path
/// arises when the *main* ECO SAT times out, while the (much simpler)
/// resubstitution queries still run.
const CEGAR_MIN_CONFLICTS: Option<u64> = Some(100_000);

/// The final verification SAT call may spend this many times
/// [`EcoOptions::per_call_conflicts`].
const VERIFY_BUDGET_FACTOR: u64 = 8;

/// Search caps of one SAT-path attempt.
#[derive(Clone, Copy, Debug)]
struct Effort {
    /// Cap on last-gasp replacement attempts (0 disables).
    last_gasp_tries: usize,
    /// Cap on quantification-refinement assignments before falling back.
    max_refinements: usize,
    /// Cap on enumerated SOP cubes per patch.
    max_cubes: usize,
}

/// The full-effort attempt (rung 1 of the degradation ladder).
const FULL_EFFORT: Effort = Effort {
    last_gasp_tries: 24,
    max_refinements: 128,
    max_cubes: 1 << 14,
};

/// The reduced-effort retry (rung 2): no last-gasp, tight refinement
/// and cube caps.
const REDUCED_EFFORT: Effort = Effort {
    last_gasp_tries: 0,
    max_refinements: 8,
    max_cubes: 1024,
};

impl EcoOptions {
    /// Starts a builder seeded with [`EcoOptions::default`].
    pub fn builder() -> EcoOptionsBuilder {
        EcoOptionsBuilder::default()
    }
}

/// Chainable constructor for [`EcoOptions`].
///
/// Every method overrides one field; unset fields keep their
/// [`EcoOptions::default`] value.
///
/// # Examples
///
/// ```
/// use eco_core::{EcoOptions, SupportMethod};
///
/// let opts = EcoOptions::builder()
///     .method(SupportMethod::SatPrune)
///     .per_call_conflicts(Some(500_000))
///     .verify(false)
///     .build();
/// assert_eq!(opts.method, SupportMethod::SatPrune);
/// ```
#[derive(Clone, Debug, Default)]
pub struct EcoOptionsBuilder {
    options: EcoOptions,
}

impl EcoOptionsBuilder {
    /// Sets the support computation method.
    pub fn method(mut self, method: SupportMethod) -> Self {
        self.options.method = method;
        self
    }

    /// Enables or disables `CEGAR_min` resubstitution of structural
    /// patches.
    pub fn cegar_min(mut self, enabled: bool) -> Self {
        self.options.cegar_min = enabled;
        self
    }

    /// Sets the per-SAT-call conflict budget (`None` = unlimited).
    pub fn per_call_conflicts(mut self, budget: Option<u64>) -> Self {
        self.options.per_call_conflicts = budget;
        self
    }

    /// Sets the remaining-target count up to which quantification
    /// expands all `2^r` assignments.
    pub fn exact_quantification_threshold(mut self, threshold: usize) -> Self {
        self.options.exact_quantification_threshold = threshold;
        self
    }

    /// Enables or disables the structural fallback on budget
    /// exhaustion.
    pub fn structural_fallback(mut self, enabled: bool) -> Self {
        self.options.structural_fallback = enabled;
        self
    }

    /// Sets the `SAT_prune` sub-options.
    pub fn sat_prune(mut self, options: SatPruneOptions) -> Self {
        self.options.sat_prune = options;
        self
    }

    /// Enables or disables the final equivalence check.
    pub fn verify(mut self, enabled: bool) -> Self {
        self.options.verify = enabled;
        self
    }

    /// Finalizes the options.
    pub fn build(self) -> EcoOptions {
        self.options
    }
}

/// How an individual target ended up patched.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PatchKind {
    /// SAT path: support computation plus cube enumeration.
    Sat,
    /// Structural cofactor patch over primary inputs.
    Structural,
    /// Structural patch improved by max-flow resubstitution.
    StructuralCegarMin,
    /// The target became unreachable after earlier patches; a constant
    /// patch suffices.
    TrivialDead,
    /// No patch was produced (the target's disposition is
    /// [`TargetDisposition::Skipped`]); the target keeps its original
    /// function.
    Skipped,
}

/// How the degradation ladder left an individual target.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TargetDisposition {
    /// The full-effort attempt succeeded.
    Patched,
    /// A lower ladder rung (reduced-effort retry or structural patch)
    /// produced the patch after the full attempt ran out of resources.
    Degraded,
    /// No rung produced a patch; the target keeps its original
    /// function and the outcome is unverified.
    Skipped {
        /// Why the target was given up on (a governor trip reason or
        /// an error description).
        reason: String,
    },
}

impl TargetDisposition {
    /// `true` unless the target was skipped.
    pub fn is_patched(&self) -> bool {
        !matches!(self, TargetDisposition::Skipped { .. })
    }
}

/// Per-target patch statistics.
#[derive(Clone, Debug)]
pub struct TargetPatchReport {
    /// Index into the original problem's target list.
    pub target_index: usize,
    /// Path taken.
    pub kind: PatchKind,
    /// How the degradation ladder left this target.
    pub disposition: TargetDisposition,
    /// Number of support signals.
    pub support_size: usize,
    /// Summed weight of the distinct support signals.
    pub cost: u64,
    /// AND gates in the patch network.
    pub gates: usize,
    /// Cubes in the enumerated SOP (SAT path only).
    pub cubes: Option<usize>,
    /// SAT calls spent on this target.
    pub sat_calls: u64,
}

/// One applied patch, for downstream consumers (e.g. netlist-level
/// splicing): the patch network plus its support expressed over the
/// *original* problem's implementation nodes where possible.
#[derive(Clone, Debug)]
pub struct AppliedPatch {
    /// Index into the original problem's target list.
    pub target_index: usize,
    /// The patch logic (single output); input `i` binds to
    /// `support[i]`.
    pub aig: Aig,
    /// Patch support as literals over the implementation *at
    /// application time*.
    pub support: Vec<AigLit>,
    /// For each support entry: the original-problem node computing the
    /// same signal, when the support signal already existed in the
    /// original implementation (`None` for logic created by earlier
    /// patches).
    pub original_support: Vec<Option<NodeId>>,
}

/// Result of a full engine run.
#[derive(Clone, Debug)]
pub struct EcoOutcome {
    /// The implementation with all patches applied.
    pub patched_implementation: Aig,
    /// Per-target reports, in processing order.
    pub reports: Vec<TargetPatchReport>,
    /// Sum of per-target support costs.
    pub total_cost: u64,
    /// Total AND gates across all patch networks.
    pub total_gates: usize,
    /// `true` when the final equivalence check passed (`false` when
    /// verification was skipped or exceeded its budget).
    pub verified: bool,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Number of QBF certificate assignments collected (0 when the
    /// check was skipped or timed out).
    pub qbf_certificates: usize,
    /// The applied patches, in processing order (excludes
    /// trivially-dead targets).
    pub patches: Vec<AppliedPatch>,
    /// Aggregated run telemetry, present when the engine was built
    /// with [`EcoEngine::with_metrics`].
    pub metrics: Option<RunMetrics>,
    /// The sticky governor trip that cut the run short (`None` when no
    /// governor was configured or it never tripped). A `Some` here
    /// marks an *anytime* outcome: inspect the per-target
    /// [`TargetPatchReport::disposition`]s for what completed.
    pub governor_trip: Option<TripReason>,
    /// Faults injected by the governor's
    /// [`FaultPlan`](eco_sat::FaultPlan) during the run.
    pub fault_injections: u64,
}

/// The resource-aware ECO patch engine.
///
/// # Examples
///
/// ```
/// use eco_aig::Aig;
/// use eco_core::{EcoEngine, EcoOptions, EcoProblem};
///
/// // Implementation computes a & b where the spec wants a | b.
/// let mut im = Aig::new();
/// let a = im.add_input();
/// let b = im.add_input();
/// let t = im.and(a, b);
/// im.add_output(t);
/// let target = t.node();
/// let mut sp = Aig::new();
/// let a = sp.add_input();
/// let b = sp.add_input();
/// let o = sp.or(a, b);
/// sp.add_output(o);
///
/// let problem = EcoProblem::with_unit_weights(im, sp, vec![target])?;
/// let options = EcoOptions::builder().build();
/// let outcome = EcoEngine::new(options).solve(&problem.snapshot())?;
/// assert!(outcome.verified);
/// # Ok::<(), eco_core::EcoError>(())
/// ```
///
/// Attach observers with [`EcoEngine::with_observer`] to stream
/// [`EcoEvent`]s, or call [`EcoEngine::with_metrics`] to aggregate a
/// [`RunMetrics`] into [`EcoOutcome::metrics`]. Attach an [`EcoCache`]
/// with [`EcoEngine::with_cache`] to reuse windows, CNF builds, and
/// solved targets across runs sharing the cache.
#[derive(Clone, Default)]
pub struct EcoEngine {
    /// Configuration used by [`EcoEngine::solve`].
    pub options: EcoOptions,
    observers: Vec<Arc<Mutex<dyn EcoObserver + Send>>>,
    collect_metrics: bool,
    governor: Option<ResourceGovernor>,
    cache: Option<EcoCache>,
    request_id: Option<String>,
}

impl fmt::Debug for EcoEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EcoEngine")
            .field("options", &self.options)
            .field("observers", &self.observers.len())
            .field("collect_metrics", &self.collect_metrics)
            .field("cache", &self.cache)
            .field("request_id", &self.request_id)
            .finish()
    }
}

impl EcoEngine {
    /// Creates an engine with the given options.
    pub fn new(options: EcoOptions) -> EcoEngine {
        EcoEngine {
            options,
            observers: Vec::new(),
            collect_metrics: false,
            governor: None,
            cache: None,
            request_id: None,
        }
    }

    /// Attaches a shared content-hash cache: windows, quantified
    /// miters, and solved targets are looked up before being rebuilt
    /// and stored after a miss. Clone one [`EcoCache`] into many
    /// engines to share it across runs (the daemon does exactly this
    /// across requests). Cached artifacts are keyed by the full content
    /// of what they depend on, so hits return byte-identical results.
    pub fn with_cache(mut self, cache: EcoCache) -> EcoEngine {
        self.cache = Some(cache);
        self
    }

    /// Tags every run of this engine with a request id: it is emitted
    /// as [`EcoEvent::RequestTagged`] right after
    /// [`EcoEvent::RunStarted`] and lands in
    /// [`RunMetrics::request_id`], giving traces and metrics a
    /// per-request dimension when many runs share one observer.
    pub fn with_request_id(mut self, request_id: impl Into<String>) -> EcoEngine {
        self.request_id = Some(request_id.into());
        self
    }

    /// Installs a [`ResourceGovernor`] that bounds every
    /// [`EcoEngine::solve`] call of this engine (runs are ungoverned
    /// without one). Its deadline clock starts when it is built, so
    /// build one per solve for a per-run deadline. Keep a clone of the
    /// handle to [`ResourceGovernor::cancel`] a running engine from
    /// another thread or to share one pool across several runs.
    pub fn with_governor(mut self, governor: ResourceGovernor) -> EcoEngine {
        self.governor = Some(governor);
        self
    }

    /// Attaches an observer; every [`EcoEvent`] of subsequent
    /// [`EcoEngine::solve`] calls is delivered to it. Repeated calls
    /// compose (all observers see every event).
    pub fn with_observer<O: EcoObserver + Send + 'static>(mut self, observer: O) -> EcoEngine {
        self.observers.push(Arc::new(Mutex::new(observer)));
        self
    }

    /// Attaches a shared observer, for callers that need to keep a
    /// handle to it (e.g. to inspect accumulated state after `solve`).
    pub fn with_shared_observer(
        mut self,
        observer: Arc<Mutex<dyn EcoObserver + Send>>,
    ) -> EcoEngine {
        self.observers.push(observer);
        self
    }

    /// Aggregates a [`MetricsObserver`] internally and attaches the
    /// resulting [`RunMetrics`] to [`EcoOutcome::metrics`].
    pub fn with_metrics(mut self) -> EcoEngine {
        self.collect_metrics = true;
        self
    }

    /// Runs the full flow on the snapshotted problem.
    ///
    /// The snapshot shares the underlying [`EcoProblem`] by `Arc` (no
    /// clone per run) and carries precomputed content hashes, which the
    /// optional [`EcoCache`] keys on. Build one with
    /// [`EcoProblem::snapshot`] or [`ProblemSnapshot::new`].
    ///
    /// # Errors
    ///
    /// - [`EcoError::TargetsInsufficient`] when expression (1) is SAT.
    /// - [`EcoError::SolverBudgetExhausted`] when budgets run out and
    ///   the structural fallback is disabled.
    /// - [`EcoError::VerificationFailed`] when the final check finds a
    ///   counterexample (possible only after a timed-out feasibility
    ///   check, mirroring the paper's invalid-patch caveat).
    pub fn solve(&self, snapshot: &ProblemSnapshot) -> Result<EcoOutcome, EcoError> {
        let t0 = Instant::now();
        let problem: &EcoProblem = snapshot.problem();
        let gov = self.governor.as_ref();
        let mut trips = TripLog::default();
        let (obs, metrics_sink) = self.run_observers();
        obs.emit(|| EcoEvent::RunStarted {
            num_targets: problem.targets.len(),
            per_call_conflicts: self.options.per_call_conflicts,
        });
        if let Some(request_id) = &self.request_id {
            obs.emit(|| EcoEvent::RequestTagged {
                request_id: request_id.clone(),
            });
        }

        let certificates = in_phase(&obs, Phase::SufficiencyCheck, || {
            self.sufficiency_check(problem, gov, &mut trips, &obs)
        })?;
        let window = in_phase(&obs, Phase::Windowing, || Ok(self.windowed(snapshot, &obs)))?;
        let generated = in_phase(&obs, Phase::PatchGeneration, || {
            self.generate_patches(
                problem,
                &window,
                certificates.as_deref(),
                gov,
                &mut trips,
                &obs,
            )
        })?;
        let verified = in_phase(&obs, Phase::Verification, || {
            self.verify(&generated, &problem.specification, gov, &mut trips, &obs)
        })?;

        obs.emit(|| EcoEvent::RunFinished {
            elapsed: t0.elapsed(),
        });
        let metrics =
            metrics_sink.and_then(|sink| sink.lock().ok().map(|guard| guard.metrics().clone()));
        let Generated {
            work,
            reports,
            applied,
            ..
        } = generated;
        Ok(EcoOutcome {
            patched_implementation: work.implementation,
            total_cost: reports.iter().map(|r| r.cost).sum(),
            total_gates: reports.iter().map(|r| r.gates).sum(),
            reports,
            verified,
            elapsed: t0.elapsed(),
            qbf_certificates: certificates.as_ref().map_or(0, Vec::len),
            patches: applied,
            metrics,
            governor_trip: gov.and_then(ResourceGovernor::trip),
            fault_injections: gov.map_or(0, ResourceGovernor::fault_injections),
        })
    }

    /// The run's observer handle, plus the internal metrics aggregator
    /// when [`EcoEngine::with_metrics`] asked for one.
    fn run_observers(&self) -> (ObserverHandle, Option<Arc<Mutex<MetricsObserver>>>) {
        let mut sinks = self.observers.clone();
        let metrics_sink = self.collect_metrics.then(|| {
            let sink = Arc::new(Mutex::new(MetricsObserver::new()));
            sinks.push(sink.clone() as Arc<Mutex<dyn EcoObserver + Send>>);
            sink
        });
        (ObserverHandle::new(sinks), metrics_sink)
    }

    /// Phase 1: verifies the target set is sufficient (Sec. 3.2) and
    /// returns the QBF certificates, or `None` when the check ran out
    /// of resources and the structural fallback lets the run assume
    /// solvability (final verification guards).
    fn sufficiency_check(
        &self,
        problem: &EcoProblem,
        gov: Option<&ResourceGovernor>,
        trips: &mut TripLog,
        obs: &ObserverHandle,
    ) -> Result<Option<Vec<Vec<bool>>>, EcoError> {
        let opts = &self.options;
        match check_targets_sufficient_observed(
            problem,
            QBF_MAX_ITERATIONS,
            opts.per_call_conflicts,
            obs,
            gov,
        ) {
            QbfOutcome::Solvable { certificates, .. } => Ok(Some(certificates)),
            QbfOutcome::Unsolvable { witness } => Err(EcoError::TargetsInsufficient { witness }),
            QbfOutcome::Unknown => {
                trips.note(obs, gov);
                if opts.structural_fallback {
                    Ok(None)
                } else {
                    Err(classify_error(
                        EcoError::budget_exhausted("sufficiency check"),
                        gov,
                    ))
                }
            }
        }
    }

    /// Phase 3: patches every target (Sec. 3.1). Independent targets
    /// are solved as a batch when their output cones are disjoint,
    /// otherwise the head target is solved alone, in substitution
    /// order. Outputs that no remaining target reaches are queued as
    /// CEC chunks for [`EcoEngine::verify`].
    fn generate_patches(
        &self,
        problem: &EcoProblem,
        window: &Window,
        certificates: Option<&[Vec<bool>]>,
        gov: Option<&ResourceGovernor>,
        trips: &mut TripLog,
        obs: &ObserverHandle,
    ) -> Result<Generated, EcoError> {
        let opts = &self.options;
        let num_outputs = problem.implementation.num_outputs();
        let mut cec_chunks = Vec::new();
        // Outputs not yet handed to a CEC chunk.
        let mut pending_outputs = vec![true; num_outputs];
        // Queueing stops as soon as a target is skipped: the netlist is
        // then inequivalent by construction and the run reports
        // `verified == false` without spending CEC budget.
        let mut checking = opts.verify;
        if checking {
            // Outputs outside the window are target-free from the
            // start, so they are checked against the original
            // implementation.
            let free: Vec<usize> = (0..num_outputs)
                .filter(|i| window.outputs.binary_search(i).is_err())
                .collect();
            for &o in &free {
                pending_outputs[o] = false;
            }
            push_cec_chunks(&mut cec_chunks, problem.implementation.clone(), free);
        }

        let mut work = problem.clone();
        let mut remaining_original: Vec<usize> = (0..work.targets.len()).collect();
        let mut reports: Vec<TargetPatchReport> = Vec::new();
        let mut applied: Vec<AppliedPatch> = Vec::new();
        // Identity of each work node in the original implementation.
        let mut orig_of: Vec<Option<NodeId>> = (0..work.implementation.num_nodes())
            .map(|i| Some(NodeId::from_index(i)))
            .collect();

        while !work.targets.is_empty() {
            // Disjoint-output targets form an independent batch: each is
            // a standalone single-target subproblem against the shared
            // snapshot, and all are committed in one substitution.
            let batch = independent_targets(&work.implementation, &work.targets);
            let member_windows: Vec<Window>;
            let plan: Vec<TargetPlan> = if batch.len() >= 2 {
                let per_outputs = per_target_outputs(&work.implementation, &work.targets);
                member_windows = batch
                    .iter()
                    .map(|&pos| Window {
                        outputs: per_outputs[pos].clone(),
                        inputs: window.inputs.clone(),
                        divisors: Vec::new(),
                    })
                    .collect();
                // One arbitrary constant assignment for the other
                // targets. This is exact, not an approximation: none of
                // them reaches a member's window outputs, so the
                // quantified miter does not depend on their values.
                // Candidate divisors exclude the union TFO of all
                // remaining targets, so the members' patches are
                // mutually independent.
                let initial = vec![vec![false; work.targets.len() - 1]];
                batch
                    .iter()
                    .zip(&member_windows)
                    .map(|(&pos, member_window)| TargetPlan {
                        pos,
                        target_index: remaining_original[pos],
                        window: member_window,
                        assignments: initial.clone(),
                        exact: true,
                    })
                    .collect()
            } else {
                // The head target alone — the paper's substitution
                // order, used whenever output cones overlap.
                let r = work.targets.len() - 1;
                let exact = r <= opts.exact_quantification_threshold;
                vec![TargetPlan {
                    pos: 0,
                    target_index: remaining_original[0],
                    window,
                    assignments: head_assignments(r, exact, certificates, &remaining_original[1..]),
                    exact,
                }]
            };

            let mut patches_by_pos: HashMap<usize, NodePatch> = HashMap::new();
            let mut drop_positions: HashSet<usize> = HashSet::new();
            let mut patched_reports: Vec<TargetPatchReport> = Vec::new();
            for target in &plan {
                match self.solve_target(&work, target, gov, trips, obs)? {
                    Ok((patch, report)) => {
                        // Record the applied patch before metadata
                        // remapping.
                        applied.push(AppliedPatch {
                            target_index: target.target_index,
                            aig: patch.aig.clone(),
                            support: patch.support.clone(),
                            original_support: patch
                                .support
                                .iter()
                                .map(|l| orig_of[l.node().index()])
                                .collect(),
                        });
                        patches_by_pos.insert(target.pos, patch);
                        patched_reports.push(report);
                    }
                    Err(skipped) => {
                        // The target keeps its original function; the
                        // failure stays isolated to it.
                        reports.push(skipped);
                        drop_positions.insert(target.pos);
                    }
                }
            }
            commit_patches(
                &mut work,
                &mut remaining_original,
                &mut orig_of,
                patches_by_pos,
                &drop_positions,
                &mut reports,
            )?;
            reports.extend(patched_reports);
            if !drop_positions.is_empty() {
                checking = false;
            }

            // Outputs no remaining target reaches are final: queue them
            // against the current snapshot.
            if checking && pending_outputs.iter().any(|&p| p) {
                let fanouts = work.implementation.fanouts();
                let reached = work
                    .implementation
                    .tfo_mask(work.targets.iter().copied(), &fanouts);
                let freed: Vec<usize> = work
                    .implementation
                    .outputs()
                    .iter()
                    .enumerate()
                    .filter(|&(o, out)| pending_outputs[o] && !reached[out.node().index()])
                    .map(|(o, _)| o)
                    .collect();
                for &o in &freed {
                    pending_outputs[o] = false;
                }
                push_cec_chunks(&mut cec_chunks, work.implementation.clone(), freed);
            }
        }
        Ok(Generated {
            work,
            reports,
            applied,
            cec_chunks,
        })
    }

    /// Phase 4: checks the queued CEC chunks in order. The first
    /// counterexample aborts the run, any `Unknown` demotes it to
    /// unverified, all-equivalent verifies it. A skipped target leaves
    /// the implementation inequivalent by construction, and a
    /// hard-tripped governor has no time left: in both cases the check
    /// is skipped so the run still returns an anytime outcome (with
    /// `verified == false`).
    fn verify(
        &self,
        generated: &Generated,
        spec: &Aig,
        gov: Option<&ResourceGovernor>,
        trips: &mut TripLog,
        obs: &ObserverHandle,
    ) -> Result<bool, EcoError> {
        let opts = &self.options;
        let any_skipped = generated
            .reports
            .iter()
            .any(|r| !r.disposition.is_patched());
        let hard_tripped = gov.is_some_and(|g| g.hard_trip().is_some());
        let mut verified = opts.verify && !any_skipped && !hard_tripped;
        if verified {
            let budget = opts
                .per_call_conflicts
                .map(|c| c.saturating_mul(VERIFY_BUDGET_FACTOR));
            for chunk in &generated.cec_chunks {
                match check_outputs_equivalence_observed(
                    &chunk.snapshot,
                    spec,
                    Some(&chunk.outputs),
                    budget,
                    obs,
                    gov,
                ) {
                    CecResult::Equivalent => {}
                    CecResult::Unknown => verified = false,
                    CecResult::Counterexample(cex) => {
                        return Err(EcoError::VerificationFailed {
                            counterexample: cex,
                        })
                    }
                }
            }
        }
        trips.note(obs, gov);
        Ok(verified)
    }

    /// Solves one target end to end: target-cache lookup, degradation
    /// ladder, cache store, the `TargetStarted`/`TargetFinished` span,
    /// and the [`TargetDisposition::Skipped`] report when every rung
    /// failed (`Ok(Err(report))`). The outer `Err` aborts the run; no
    /// `TargetFinished` is emitted then.
    fn solve_target(
        &self,
        work: &EcoProblem,
        target: &TargetPlan,
        governor: Option<&ResourceGovernor>,
        trips: &mut TripLog,
        obs: &ObserverHandle,
    ) -> Result<Result<(NodePatch, TargetPatchReport), TargetPatchReport>, EcoError> {
        let target_index = target.target_index;
        let target_t = Instant::now();
        obs.emit(|| EcoEvent::TargetStarted { target_index });
        // SAT calls spent on this target across failed attempts: carried
        // into the skip report so events and counters stay reconciled.
        let mut spent = 0u64;
        let mut ladder = || self.patch_with_ladder(work, target, &mut spent, governor, trips, obs);
        let ladder = match &self.cache {
            None => ladder()?,
            Some(cache) => {
                let key = target_solve_key(
                    work,
                    target.window,
                    &target.assignments,
                    target.exact,
                    target.pos,
                    &self.options,
                );
                // Another run's fill of this key is awaited only until
                // this run's own deadline, so a tight deadline still
                // trips on time instead of waiting out a longer solve.
                let deadline = governor
                    .and_then(ResourceGovernor::remaining_time)
                    .map(|left| Instant::now() + left);
                let fill = || {
                    let ladder = ladder();
                    let stored = match &ladder {
                        Ok(Ok((patch, report))) if solve_is_cacheable(report, governor) => {
                            Some(CachedSolve {
                                patch: patch.clone(),
                                report: report.clone(),
                            })
                        }
                        _ => None,
                    };
                    (ladder, stored)
                };
                match observed_fill(&cache.solves, CacheLayer::Target, key, deadline, obs, fill) {
                    Lookup::Hit(cached) => {
                        let mut report = cached.report;
                        report.target_index = target_index;
                        // Served from cache: this run spent no solver work.
                        report.sat_calls = 0;
                        Ok((cached.patch, report))
                    }
                    Lookup::Miss(ladder) => ladder?,
                }
            }
        };
        let sat_calls = match &ladder {
            Ok((_, report)) => report.sat_calls,
            Err(_) => spent,
        };
        obs.emit(|| EcoEvent::TargetFinished {
            target_index,
            sat_calls,
            elapsed: target_t.elapsed(),
        });
        Ok(ladder.map_err(|reason| TargetPatchReport {
            target_index,
            kind: PatchKind::Skipped,
            disposition: TargetDisposition::Skipped { reason },
            support_size: 0,
            cost: 0,
            gates: 0,
            cubes: None,
            sat_calls: spent,
        }))
    }

    /// Runs the per-target degradation ladder: full-effort SAT attempt,
    /// then (on resource exhaustion) a reduced-effort retry, then the
    /// structural patch, then skipping the target.
    ///
    /// Each rung starts from a private clone of the plan's initial
    /// assignments, so rung 1's quantification refinements never leak
    /// into rung 2.
    ///
    /// The outer `Err` aborts the whole run: non-resource errors
    /// always, resource errors only when
    /// [`EcoOptions::structural_fallback`] is off. The inner
    /// `Err(reason)` means every rung failed and the target is skipped.
    fn patch_with_ladder(
        &self,
        work: &EcoProblem,
        target: &TargetPlan,
        spent: &mut u64,
        governor: Option<&ResourceGovernor>,
        trips: &mut TripLog,
        obs: &ObserverHandle,
    ) -> Result<Result<(NodePatch, TargetPatchReport), String>, EcoError> {
        let opts = &self.options;
        let TargetPlan {
            pos,
            target_index: original_index,
            window,
            ref assignments,
            exact,
        } = *target;
        // Rung 0: a deadline/cancellation trip means no further work of
        // any kind can help; skip every rung.
        if let Some(reason) = governor.and_then(ResourceGovernor::hard_trip) {
            trips.note(obs, governor);
            obs.emit(|| EcoEvent::LadderStep {
                target_index: original_index,
                rung: LadderRung::Skipped,
            });
            return Ok(Err(reason.name().to_string()));
        }

        // Rung 1: full-effort attempt.
        let mut rung_assignments = assignments.to_vec();
        let first_err = match self.sat_patch_for_target(
            work,
            window,
            &mut rung_assignments,
            exact,
            pos,
            original_index,
            spent,
            opts,
            FULL_EFFORT,
            governor,
            obs,
        ) {
            Ok(ok) => return Ok(Ok(ok)),
            Err(e) if e.is_resource_exhausted() && opts.structural_fallback => {
                trips.note(obs, governor);
                e
            }
            Err(e) => return Err(classify_error(e, governor)),
        };

        // Rung 2: reduced-effort retry (one `analyze_final` UNSAT call
        // instead of the minimization loop, no last-gasp, tight caps)
        // — cheap enough to often succeed where the minimization loop
        // blew the budget. The per-call budget is kept: the point is
        // fewer and cheaper calls, not a bigger allowance.
        if governor.and_then(ResourceGovernor::hard_trip).is_none() {
            obs.emit(|| EcoEvent::LadderStep {
                target_index: original_index,
                rung: LadderRung::DegradedRetry,
            });
            let reduced = EcoOptions {
                method: SupportMethod::AnalyzeFinal,
                ..opts.clone()
            };
            let mut rung_assignments = assignments.to_vec();
            match self.sat_patch_for_target(
                work,
                window,
                &mut rung_assignments,
                exact,
                pos,
                original_index,
                spent,
                &reduced,
                REDUCED_EFFORT,
                governor,
                obs,
            ) {
                Ok((patch, mut report)) => {
                    report.disposition = TargetDisposition::Degraded;
                    return Ok(Ok((patch, report)));
                }
                Err(e) if e.is_resource_exhausted() => trips.note(obs, governor),
                Err(e) => return Err(classify_error(e, governor)),
            }
        }

        // Rung 3: structural patch. Needs no SAT unless CEGAR_min is
        // on; when CEGAR_min itself runs out of resources, fall back to
        // the plain (SAT-free) structural cofactor patch.
        if governor.and_then(ResourceGovernor::hard_trip).is_none() {
            obs.emit(|| EcoEvent::StructuralFallback {
                target_index: original_index,
            });
            obs.emit(|| EcoEvent::LadderStep {
                target_index: original_index,
                rung: LadderRung::Structural,
            });
            match self.structural_patch_for_target(
                work,
                window,
                assignments,
                pos,
                original_index,
                *spent,
                opts,
                governor,
                obs,
            ) {
                Ok(ok) => return Ok(Ok(ok)),
                Err(e) if e.is_resource_exhausted() => {
                    trips.note(obs, governor);
                    if opts.cegar_min && governor.and_then(ResourceGovernor::hard_trip).is_none() {
                        let mut plain = opts.clone();
                        plain.cegar_min = false;
                        match self.structural_patch_for_target(
                            work,
                            window,
                            assignments,
                            pos,
                            original_index,
                            *spent,
                            &plain,
                            governor,
                            obs,
                        ) {
                            Ok(ok) => return Ok(Ok(ok)),
                            Err(e) if e.is_resource_exhausted() => trips.note(obs, governor),
                            Err(e) => return Err(classify_error(e, governor)),
                        }
                    }
                }
                Err(e) => return Err(classify_error(e, governor)),
            }
        }

        // Rung 4: give up on this target only.
        trips.note(obs, governor);
        obs.emit(|| EcoEvent::LadderStep {
            target_index: original_index,
            rung: LadderRung::Skipped,
        });
        Ok(Err(skip_reason_for(&first_err, governor)))
    }

    /// Phase 2: computes (or cache-loads) the run-wide window
    /// (Sec. 3.3), fixed for the whole run so the per-step Herbrand
    /// argument applies to one output set. The key covers
    /// everything [`compute_window`] reads: the implementation
    /// representation, the target list, and the canonical spec cones
    /// over the impl-side window outputs — so a hit is exactly the
    /// window a cold computation would produce, and a spec revision
    /// outside those cones still hits.
    fn windowed(&self, snapshot: &ProblemSnapshot, obs: &ObserverHandle) -> Window {
        let problem = snapshot.problem();
        let Some(cache) = &self.cache else {
            return compute_window(problem);
        };
        let key = window_cache_key(snapshot);
        match observed_fill(&cache.windows, CacheLayer::Window, key, None, obs, || {
            let window = compute_window(problem);
            (window.clone(), Some(window))
        }) {
            Lookup::Hit(window) | Lookup::Miss(window) => window,
        }
    }

    /// Builds (or cache-loads) the quantified miter for
    /// `work.targets[pos]`. Reuse is sound on the SAT path because the
    /// CNF encoder assigns variables in structural traversal order from
    /// literals (miter output, divisor `impl_map` entries, x/n inputs)
    /// that are fixed before the spec import, so two miters with equal
    /// keys encode to identical clause streams even when the cached
    /// one was built against a differently-numbered spec. The
    /// structural rung reads miter node ids directly, so it always
    /// builds fresh and never touches this cache.
    fn quantified_miter(
        &self,
        work: &EcoProblem,
        pos: usize,
        assignments: &[Vec<bool>],
        window: &Window,
        obs: &ObserverHandle,
    ) -> Arc<QuantifiedMiter> {
        let build = || {
            Arc::new(QuantifiedMiter::build(
                work,
                pos,
                assignments,
                Some(&window.outputs),
            ))
        };
        let Some(cache) = &self.cache else {
            return build();
        };
        let key = miter_cache_key(work, pos, assignments, &window.outputs);
        match observed_fill(&cache.miters, CacheLayer::Cnf, key, None, obs, || {
            let miter = build();
            (miter.clone(), Some(miter))
        }) {
            Lookup::Hit(miter) | Lookup::Miss(miter) => miter,
        }
    }

    /// Persists a class layer's accumulated counterexample witnesses
    /// under the subproblem's miter key so a later request for the same
    /// state starts with a warm pattern pool. Witness replay re-verifies
    /// every pattern by simulation before use, so a stale entry can
    /// never change a verdict — but anything observed under governor
    /// pressure is still skipped, mirroring [`solve_is_cacheable`].
    fn store_witnesses(
        &self,
        work: &EcoProblem,
        pos: usize,
        assignments: &[Vec<bool>],
        window: &Window,
        classes: &EquivClasses,
        governor: Option<&ResourceGovernor>,
    ) {
        let Some(cache) = &self.cache else {
            return;
        };
        if governor.is_some_and(|g| g.trip().is_some() || g.fault_injections() != 0) {
            return;
        }
        let witnesses = classes.witnesses();
        if witnesses.is_empty() {
            return;
        }
        let key = miter_cache_key(work, pos, assignments, &window.outputs);
        cache.witnesses.put(key, Arc::new(witnesses.to_vec()));
    }

    /// SAT path for `work.targets[pos]`: feasibility (with CEGAR
    /// quantification refinement when approximate), support
    /// computation, cube enumeration, factoring.
    ///
    /// `spent` accumulates every SAT call made on behalf of this
    /// target — including calls from refinement iterations whose
    /// support solver is discarded, and calls made before an error —
    /// so the final report (or the structural-fallback report built
    /// from `spent` after an `Err`) matches the emitted
    /// [`EcoEvent::SatCall`] stream exactly.
    /// `opts` and `effort` are passed explicitly (not read from
    /// `self`) so the degradation ladder can re-run the attempt with
    /// reduced-effort settings.
    #[allow(clippy::too_many_arguments)]
    fn sat_patch_for_target(
        &self,
        work: &EcoProblem,
        window: &Window,
        assignments: &mut Vec<Vec<bool>>,
        exact: bool,
        pos: usize,
        original_index: usize,
        spent: &mut u64,
        opts: &EcoOptions,
        effort: Effort,
        governor: Option<&ResourceGovernor>,
        obs: &ObserverHandle,
    ) -> Result<(NodePatch, TargetPatchReport), EcoError> {
        let classes_on = class_layer_on(opts);
        // Class layer carried across quantification-refinement
        // iterations: witnesses are replayed (re-verified by
        // simulation against the refined miter), feasible sets are
        // adopted directly (refinement only strengthens the miter, so
        // UNSAT answers persist).
        let mut carried: Option<EquivClasses> = None;
        loop {
            let qm = self.quantified_miter(work, pos, assignments, window, obs);
            let qm: &QuantifiedMiter = &qm;
            let mut divisors =
                compute_divisors(&work.implementation, &work.targets, &window.inputs);
            divisors.sort_by_key(|d| (work.weight(*d), d.index()));
            divisors.truncate(MAX_DIVISORS);
            let mut ss = support_solver_for(work, qm, &divisors, opts.per_call_conflicts);
            ss.set_observer(obs.clone(), Some(original_index));
            ss.set_governor(governor.cloned());
            if classes_on {
                let seed = classes_seed(original_index, assignments.len());
                let mut classes = EquivClasses::build(qm, &divisors, seed);
                match carried.take() {
                    Some(prev) => {
                        for (x1, x2) in prev.witnesses() {
                            classes.replay_witness(x1, x2);
                        }
                        for f in prev.feasible_sets() {
                            classes.learn_feasible(f);
                        }
                    }
                    None => {
                        // Cold iteration: replay witnesses an earlier
                        // request left in the cache for this exact
                        // subproblem state.
                        if let Some(cache) = &self.cache {
                            let key = miter_cache_key(work, pos, assignments, &window.outputs);
                            if let Some(ws) = cache.witnesses.get(key) {
                                for (x1, x2) in ws.iter() {
                                    classes.replay_witness(x1, x2);
                                }
                            }
                        }
                    }
                }
                ss.set_classes(Some(classes));
            }
            let feasible = match ss.all_feasible() {
                Ok(f) => f,
                Err(e) => {
                    *spent += ss.sat_calls;
                    emit_classes_report(obs, &ss, original_index);
                    return Err(e);
                }
            };
            if !feasible {
                if exact {
                    *spent += ss.sat_calls;
                    emit_classes_report(obs, &ss, original_index);
                    return Err(EcoError::NoFeasibleSupport {
                        target_index: original_index,
                    });
                }
                if assignments.len() >= effort.max_refinements {
                    *spent += ss.sat_calls;
                    emit_classes_report(obs, &ss, original_index);
                    return Err(EcoError::budget_exhausted("quantification refinement"));
                }
                let (x1, x2) = ss.infeasibility_witness();
                *spent += ss.sat_calls;
                emit_classes_report(obs, &ss, original_index);
                if classes_on {
                    carried = ss.take_classes();
                    if let Some(classes) = carried.as_ref() {
                        self.store_witnesses(work, pos, assignments, window, classes, governor);
                    }
                }
                if !self.refine_assignments(
                    work,
                    window,
                    assignments,
                    &x1,
                    &x2,
                    pos,
                    original_index,
                    spent,
                    opts,
                    governor,
                    obs,
                )? {
                    // Neither witness is spurious: genuinely infeasible.
                    return Err(EcoError::NoFeasibleSupport {
                        target_index: original_index,
                    });
                }
                obs.emit(|| EcoEvent::QuantificationRefinement {
                    target_index: original_index,
                    assignments: assignments.len(),
                });
                continue;
            }
            let computed = match opts.method {
                SupportMethod::AnalyzeFinal => ss.analyze_final_support(),
                SupportMethod::MinimizeAssumptions => ss.minimized_support(effort.last_gasp_tries),
                SupportMethod::SatPrune => ss
                    .minimized_support(effort.last_gasp_tries)
                    .and_then(|seed| sat_prune_support(&mut ss, Some(seed), opts.sat_prune))
                    .map(|r| r.support),
            };
            let support: SupportResult = match computed {
                Ok(s) => s,
                Err(e) => {
                    *spent += ss.sat_calls;
                    emit_classes_report(obs, &ss, original_index);
                    return Err(e);
                }
            };
            let support_nodes: Vec<NodeId> = support
                .divisor_indices
                .iter()
                .map(|&i| divisors[i])
                .collect();
            *spent += ss.sat_calls;
            emit_classes_report(obs, &ss, original_index);
            if classes_on {
                if let Some(classes) = ss.take_classes() {
                    self.store_witnesses(work, pos, assignments, window, &classes, governor);
                }
            }
            let sop = enumerate_patch_sop_observed(
                qm,
                &support_nodes,
                original_index,
                opts.per_call_conflicts,
                effort.max_cubes,
                obs,
                spent,
                governor,
            )?;
            let mut patch_aig = Aig::new();
            let sup_lits: Vec<AigLit> = support_nodes
                .iter()
                .map(|_| patch_aig.add_input())
                .collect();
            let root = factor_sop(&mut patch_aig, &sop.sop, &sup_lits);
            patch_aig.add_output(root);
            let gates = patch_aig.num_ands();
            let patch = NodePatch {
                aig: patch_aig,
                support: support_nodes.iter().map(|d| d.lit()).collect(),
            };
            let report = TargetPatchReport {
                target_index: original_index,
                kind: PatchKind::Sat,
                disposition: TargetDisposition::Patched,
                support_size: support_nodes.len(),
                cost: support.cost,
                gates,
                cubes: Some(sop.sop.len()),
                sat_calls: *spent,
            };
            return Ok((patch, report));
        }
    }

    /// Adds quantification assignments refuting spurious infeasibility
    /// witnesses. Returns `false` when neither witness is spurious.
    #[allow(clippy::too_many_arguments)]
    fn refine_assignments(
        &self,
        work: &EcoProblem,
        window: &Window,
        assignments: &mut Vec<Vec<bool>>,
        x1: &[bool],
        x2: &[bool],
        pos: usize,
        target_index: usize,
        spent: &mut u64,
        opts: &EcoOptions,
        governor: Option<&ResourceGovernor>,
        obs: &ObserverHandle,
    ) -> Result<bool, EcoError> {
        let miter = EcoMiter::build(work, Some(&window.outputs));
        let mut solver = Solver::new();
        solver.set_search_control(governor.map(ResourceGovernor::control));
        let mut enc = CnfEncoder::new(&miter.aig);
        let out = enc.lit(&miter.aig, &mut solver, miter.output);
        let x_lits: Vec<_> = miter
            .x_inputs
            .iter()
            .map(|&l| enc.lit(&miter.aig, &mut solver, l))
            .collect();
        let n_lits: Vec<_> = miter
            .target_inputs
            .iter()
            .map(|&l| enc.lit(&miter.aig, &mut solver, l))
            .collect();
        let mut added = false;
        for (x, n0_value) in [(x1, false), (x2, true)] {
            let mut assumptions: Vec<_> = x_lits
                .iter()
                .zip(x)
                .map(|(&l, &v)| if v { l } else { !l })
                .collect();
            assumptions.push(if n0_value { n_lits[pos] } else { !n_lits[pos] });
            assumptions.push(!out);
            if let Some(c) = opts.per_call_conflicts {
                solver.set_budget(Some(c), None);
            }
            *spent += 1;
            let before = obs.snapshot(&mut solver);
            let result = solver.solve(&assumptions);
            obs.sat_call(
                before,
                &solver,
                SatCallKind::Refinement,
                Some(target_index),
                result,
            );
            match result {
                SolveResult::Unknown => return Err(EcoError::budget_exhausted("refinement")),
                SolveResult::Unsat => {} // genuine: no fixing assignment
                SolveResult::Sat => {
                    let assignment: Vec<bool> = n_lits
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != pos)
                        .map(|(_, &l)| solver.model_value(l).to_option().unwrap_or(false))
                        .collect();
                    if !assignments.contains(&assignment) {
                        assignments.push(assignment);
                        added = true;
                    }
                }
            }
        }
        Ok(added)
    }

    /// Structural fallback for `work.targets[pos]` (Sec. 3.6),
    /// optionally improved by `CEGAR_min`.
    ///
    /// `spent` carries the SAT calls already charged to this target by
    /// the failed SAT attempt; they stay in the report so counters and
    /// emitted events reconcile.
    #[allow(clippy::too_many_arguments)]
    fn structural_patch_for_target(
        &self,
        work: &EcoProblem,
        window: &Window,
        assignments: &[Vec<bool>],
        pos: usize,
        original_index: usize,
        spent: u64,
        opts: &EcoOptions,
        governor: Option<&ResourceGovernor>,
        obs: &ObserverHandle,
    ) -> Result<(NodePatch, TargetPatchReport), EcoError> {
        let qm = QuantifiedMiter::build(work, pos, assignments, Some(&window.outputs));
        let sp = structural_patch(&qm);
        let bindings: Vec<AigLit> = sp
            .support_inputs
            .iter()
            .map(|&i| work.implementation.inputs()[i].lit())
            .collect();
        if opts.cegar_min {
            let fanouts = work.implementation.fanouts();
            let tfo = work
                .implementation
                .tfo_mask(work.targets.iter().copied(), &fanouts);
            let weight = |n: NodeId| work.weight(n);
            let eligible = |n: NodeId| !tfo[n.index()];
            let classes_on = class_layer_on(opts);
            let mut cegar_counters = ClassesCounters::default();
            let cm = cegar_min_observed(
                &work.implementation,
                &weight,
                &eligible,
                &sp.aig,
                &bindings,
                CEGAR_MIN_CONFLICTS,
                obs,
                Some(original_index),
                governor,
                if classes_on {
                    Some(&mut cegar_counters)
                } else {
                    None
                },
            )?;
            if cegar_counters != ClassesCounters::default() {
                obs.emit(|| EcoEvent::ClassesReport {
                    target_index: Some(original_index),
                    oracle_hits: 0,
                    inherited_answers: cegar_counters.inherited_answers,
                    refinement_rounds: cegar_counters.refinement_rounds,
                    witness_replays: cegar_counters.witness_replays,
                });
            }
            let gates = cm.aig.num_ands();
            let support_size = cm.support.len();
            let report = TargetPatchReport {
                target_index: original_index,
                kind: PatchKind::StructuralCegarMin,
                disposition: TargetDisposition::Degraded,
                support_size,
                cost: cm.cost,
                gates,
                cubes: None,
                sat_calls: spent + cm.sat_calls,
            };
            Ok((
                NodePatch {
                    aig: cm.aig,
                    support: cm.support,
                },
                report,
            ))
        } else {
            let distinct: HashSet<NodeId> = bindings.iter().map(|l| l.node()).collect();
            let cost = distinct.iter().map(|&n| work.weight(n)).sum();
            let gates = sp.aig.num_ands();
            let report = TargetPatchReport {
                target_index: original_index,
                kind: PatchKind::Structural,
                disposition: TargetDisposition::Degraded,
                support_size: bindings.len(),
                cost,
                gates,
                cubes: None,
                sat_calls: spent,
            };
            Ok((
                NodePatch {
                    aig: sp.aig,
                    support: bindings,
                },
                report,
            ))
        }
    }
}

/// Runs one phase between its [`EcoEvent::PhaseStarted`] and
/// [`EcoEvent::PhaseFinished`]. An error aborts the run inside the
/// phase, so no `PhaseFinished` follows it.
fn in_phase<T>(
    obs: &ObserverHandle,
    phase: Phase,
    body: impl FnOnce() -> Result<T, EcoError>,
) -> Result<T, EcoError> {
    obs.emit(|| EcoEvent::PhaseStarted { phase });
    let phase_t = Instant::now();
    let out = body()?;
    obs.emit(|| EcoEvent::PhaseFinished {
        phase,
        elapsed: phase_t.elapsed(),
    });
    Ok(out)
}

/// One target's subproblem in a patch-generation step.
struct TargetPlan<'w> {
    /// Position in the working target list.
    pos: usize,
    /// Index into the original problem's target list.
    target_index: usize,
    /// The window whose outputs the patch must rectify.
    window: &'w Window,
    /// Initial quantification assignments of the other targets.
    assignments: Vec<Vec<bool>>,
    /// `assignments` covers every assignment, so an infeasibility is
    /// genuine and needs no refinement.
    exact: bool,
}

/// What patch generation hands to verification and to the outcome.
struct Generated {
    /// The implementation with every patch substituted.
    work: EcoProblem,
    reports: Vec<TargetPatchReport>,
    applied: Vec<AppliedPatch>,
    cec_chunks: Vec<CecChunk>,
}

/// Outputs per CEC chunk, so large output spaces become many bounded
/// SAT queries.
const CEC_CHUNK: usize = 1024;

/// A chunk of primary outputs that no remaining target can reach,
/// checked against the implementation snapshot taken when they became
/// target-free (later patches cannot change them, so the verdict
/// equals a check against the final netlist).
struct CecChunk {
    snapshot: Arc<Aig>,
    outputs: Vec<usize>,
}

/// Queues `outputs` of `snapshot` as CEC chunks.
fn push_cec_chunks(chunks: &mut Vec<CecChunk>, snapshot: Aig, outputs: Vec<usize>) {
    if outputs.is_empty() {
        return;
    }
    let snapshot = Arc::new(snapshot);
    chunks.extend(outputs.chunks(CEC_CHUNK).map(|chunk| CecChunk {
        snapshot: snapshot.clone(),
        outputs: chunk.to_vec(),
    }));
}

/// Applies `patches` (keyed by position into `work.targets`) in one
/// substitution and rebuilds the per-step bookkeeping: node weights,
/// remaining targets (with their original indices), and the
/// original-identity map. Positions in `drop_positions` leave the
/// target list without a patch (skipped targets keep their original
/// function). Remaining targets that die or merge under the
/// substitution get a `TrivialDead` report, exactly as in the
/// single-patch flow.
fn commit_patches(
    work: &mut EcoProblem,
    remaining_original: &mut Vec<usize>,
    orig_of: &mut Vec<Option<NodeId>>,
    patches_by_pos: HashMap<usize, NodePatch>,
    drop_positions: &HashSet<usize>,
    reports: &mut Vec<TargetPatchReport>,
) -> Result<(), EcoError> {
    if patches_by_pos.is_empty() {
        // Nothing to substitute: drop the skipped positions only.
        let mut targets = Vec::with_capacity(work.targets.len());
        let mut original = Vec::with_capacity(work.targets.len());
        for (j, &t) in work.targets.iter().enumerate() {
            if !drop_positions.contains(&j) {
                targets.push(t);
                original.push(remaining_original[j]);
            }
        }
        work.targets = targets;
        *remaining_original = original;
        return Ok(());
    }
    let handled: HashSet<usize> = patches_by_pos
        .keys()
        .copied()
        .chain(drop_positions.iter().copied())
        .collect();
    // Targets not patched in this step are protected from strash
    // folding/merging so their rectification freedom survives the
    // rebuild.
    let protected: HashSet<NodeId> = work
        .targets
        .iter()
        .enumerate()
        .filter(|(j, _)| !patches_by_pos.contains_key(j))
        .map(|(_, &t)| t)
        .collect();
    let mut patches: HashMap<NodeId, NodePatch> = HashMap::new();
    for (pos, patch) in patches_by_pos {
        patches.insert(work.targets[pos], patch);
    }
    let sub = work
        .implementation
        .substitute_protected(&patches, &protected)
        .map_err(|e| EcoError::CyclicPatch {
            message: e.to_string(),
        })?;
    let mut new_weights = vec![work.default_weight; sub.aig.num_nodes()];
    for (old, mapped) in sub.node_map.iter().enumerate() {
        if let Some(lit) = mapped {
            let ni = lit.node().index();
            new_weights[ni] = new_weights[ni].min(work.weights[old]);
        }
    }
    let mut new_targets: Vec<NodeId> = Vec::new();
    let mut new_original = Vec::new();
    for (j, &t) in work.targets.iter().enumerate() {
        if handled.contains(&j) {
            continue;
        }
        match sub.node_map[t.index()] {
            // Structural hashing may merge two remaining targets
            // into one node; the freedom is then a single function,
            // so keep the first occurrence only.
            Some(lit) if !lit.is_const() && !new_targets.contains(&lit.node()) => {
                new_targets.push(lit.node());
                new_original.push(remaining_original[j]);
            }
            _ => {
                // Target is dead or constant: a constant-0 patch is
                // vacuously fine.
                reports.push(TargetPatchReport {
                    target_index: remaining_original[j],
                    kind: PatchKind::TrivialDead,
                    disposition: TargetDisposition::Patched,
                    support_size: 0,
                    cost: 0,
                    gates: 0,
                    cubes: None,
                    sat_calls: 0,
                });
            }
        }
    }
    // Carry original-node identity forward (strash merges keep any
    // original identity; fresh patch logic gets None).
    let mut new_orig: Vec<Option<NodeId>> = vec![None; sub.aig.num_nodes()];
    for (old, mapped) in sub.node_map.iter().enumerate() {
        if let Some(lit) = mapped {
            if !lit.is_complement() {
                if let Some(orig) = orig_of[old] {
                    new_orig[lit.node().index()].get_or_insert(orig);
                }
            }
        }
    }
    *orig_of = new_orig;
    work.implementation = sub.aig;
    work.weights = new_weights;
    work.targets = new_targets;
    *remaining_original = new_original;
    Ok(())
}

/// Tracks which governor trips have been reported, so each sticky trip
/// reason — and each injected fault — emits exactly one
/// [`EcoEvent::GovernorTripped`]. Calls are placed inside phases so the
/// event stream keeps its phase nesting invariant.
#[derive(Default)]
struct TripLog {
    seen: Vec<TripReason>,
    faults: u64,
}

impl TripLog {
    fn note(&mut self, obs: &ObserverHandle, governor: Option<&ResourceGovernor>) {
        let Some(gov) = governor else { return };
        if let Some(reason) = gov.trip() {
            if !self.seen.contains(&reason) {
                self.seen.push(reason);
                obs.emit(|| EcoEvent::GovernorTripped { reason });
            }
        }
        let faults = gov.fault_injections();
        while self.faults < faults {
            self.faults += 1;
            obs.emit(|| EcoEvent::GovernorTripped {
                reason: TripReason::FaultInjected,
            });
        }
    }
}

/// Rewrites a budget-exhausted error to the governor's hard-trip
/// reason, so a run cut short by a deadline or cancellation reports
/// [`EcoError::DeadlineExceeded`]/[`EcoError::Cancelled`] instead of a
/// generic per-call budget failure.
fn classify_error(e: EcoError, governor: Option<&ResourceGovernor>) -> EcoError {
    let EcoError::SolverBudgetExhausted { source } = &e else {
        return e;
    };
    let phase = source.phase;
    match governor.and_then(ResourceGovernor::hard_trip) {
        Some(TripReason::Deadline) => EcoError::DeadlineExceeded { phase },
        Some(TripReason::Cancelled) => EcoError::Cancelled { phase },
        _ => e,
    }
}

/// The reason string recorded on a [`TargetDisposition::Skipped`]:
/// the governor's trip reason when it tripped, the ladder's first
/// error otherwise.
fn skip_reason_for(e: &EcoError, governor: Option<&ResourceGovernor>) -> String {
    match governor.and_then(ResourceGovernor::trip) {
        Some(reason) => reason.name().to_string(),
        None => e.to_string(),
    }
}

/// All `2^r` boolean assignments of length `r`, lexicographic.
fn all_assignments(r: usize) -> Vec<Vec<bool>> {
    (0..1usize << r)
        .map(|mask| (0..r).map(|i| mask >> i & 1 == 1).collect())
        .collect()
}

/// Initial quantification assignments for the head target with `r`
/// other targets remaining: none for the last target, all `2^r` when
/// `exact`, otherwise the QBF certificates projected onto the
/// `remaining` original targets (one all-false assignment when there
/// are none; refinement supplies the rest).
fn head_assignments(
    r: usize,
    exact: bool,
    certificates: Option<&[Vec<bool>]>,
    remaining: &[usize],
) -> Vec<Vec<bool>> {
    if r == 0 {
        return Vec::new();
    }
    if exact {
        return all_assignments(r);
    }
    let projected = project_certificates(certificates.unwrap_or(&[]), remaining);
    if projected.is_empty() {
        vec![vec![false; r]]
    } else {
        projected
    }
}

/// Projects full-target certificate assignments onto the remaining
/// original target indices, deduplicated.
fn project_certificates(certificates: &[Vec<bool>], remaining: &[usize]) -> Vec<Vec<bool>> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for cert in certificates {
        let proj: Vec<bool> = remaining.iter().map(|&i| cert[i]).collect();
        if seen.insert(proj.clone()) {
            out.push(proj);
        }
    }
    out
}

/// [`CacheTable::get_or_fill`] with one [`EcoEvent::CacheQuery`] per
/// lookup: a miss is reported before `fill` runs (so the fill's own
/// events follow it), a hit — including a waiter that took a
/// concurrent fill's value — when the value comes back.
fn observed_fill<V: Clone, R>(
    table: &CacheTable<V>,
    layer: CacheLayer,
    key: u128,
    deadline: Option<Instant>,
    obs: &ObserverHandle,
    fill: impl FnOnce() -> (R, Option<V>),
) -> Lookup<V, R> {
    let lookup = table.get_or_fill(key, deadline, || {
        obs.emit(|| EcoEvent::CacheQuery { layer, hit: false });
        fill()
    });
    if let Lookup::Hit(_) = lookup {
        obs.emit(|| EcoEvent::CacheQuery { layer, hit: true });
    }
    lookup
}

/// Domain-separation tags for the cache-key spaces.
const TAG_WINDOW: u64 = 0x57_49_4e;
const TAG_MITER: u64 = 0x4d_49_54;
const TAG_SOLVE: u64 = 0x53_4f_4c;
const TAG_OPTS: u64 = 0x4f_50_54;

/// Cache key of the run-wide window: implementation representation,
/// target list, and the canonical spec cones over the impl-side window
/// outputs (the only part of the spec [`compute_window`] reads). The
/// output set is recomputed here from the implementation alone, which
/// is cheap relative to the spec-side TFI walk a miss would pay.
fn window_cache_key(snapshot: &ProblemSnapshot) -> u128 {
    let problem = snapshot.problem();
    let fanouts = problem.implementation.fanouts();
    let tfo = problem
        .implementation
        .tfo_mask(problem.targets.iter().copied(), &fanouts);
    let outputs: Vec<usize> = problem
        .implementation
        .outputs()
        .iter()
        .enumerate()
        .filter(|(_, out)| tfo[out.node().index()])
        .map(|(i, _)| i)
        .collect();
    let mut h = ContentHasher::new(TAG_WINDOW);
    h.write(snapshot.hashes().implementation);
    h.write(snapshot.hashes().targets);
    h.write(cone_hash(&problem.specification, &outputs));
    h.finish128()
}

/// Writes the parts of a per-target subproblem shared by the miter and
/// solve keys: the working implementation's representation, the
/// remaining target list, the position being solved, the quantification
/// assignments, the window outputs, and the canonical spec cones over
/// those outputs.
fn write_subproblem(
    h: &mut ContentHasher,
    work: &EcoProblem,
    pos: usize,
    assignments: &[Vec<bool>],
    outputs: &[usize],
) {
    h.write(hash_aig(&work.implementation));
    h.write(work.targets.len() as u64);
    for &t in &work.targets {
        h.write(t.index() as u64);
    }
    h.write(pos as u64);
    h.write(assignments.len() as u64);
    for a in assignments {
        h.write(a.len() as u64);
        for &bit in a {
            h.write(bit as u64);
        }
    }
    h.write(outputs.len() as u64);
    for &o in outputs {
        h.write(o as u64);
    }
    h.write(cone_hash(&work.specification, outputs));
}

/// Cache key of a quantified miter (the CNF layer).
fn miter_cache_key(
    work: &EcoProblem,
    pos: usize,
    assignments: &[Vec<bool>],
    outputs: &[usize],
) -> u128 {
    let mut h = ContentHasher::new(TAG_MITER);
    write_subproblem(&mut h, work, pos, assignments, outputs);
    h.finish128()
}

/// Cache key of a solved target: the subproblem plus everything else
/// the ladder reads — weights (divisor ordering and cost), the window
/// inputs (divisor candidates), the exactness flag, and the
/// solve-relevant option fingerprint.
fn target_solve_key(
    work: &EcoProblem,
    window: &Window,
    assignments: &[Vec<bool>],
    exact: bool,
    pos: usize,
    opts: &EcoOptions,
) -> u128 {
    let mut h = ContentHasher::new(TAG_SOLVE);
    write_subproblem(&mut h, work, pos, assignments, &window.outputs);
    h.write(window.inputs.len() as u64);
    for &i in &window.inputs {
        h.write(i as u64);
    }
    h.write(work.default_weight);
    h.write(work.weights.len() as u64);
    for &w in &work.weights {
        h.write(w);
    }
    h.write(exact as u64);
    h.write(options_fingerprint(opts));
    h.finish128()
}

/// Fingerprint of the options that shape a per-target solve. Run
/// limits live in the governor, not the options, and
/// [`solve_is_cacheable`] refuses to store anything the governor
/// interfered with.
fn options_fingerprint(opts: &EcoOptions) -> u64 {
    hash_bytes(TAG_OPTS, format!("{opts:?}").as_bytes())
}

/// Whether the test-equivalence-class layer answers this solve's
/// subset-feasibility and `CEGAR_min` probes: only under `SAT_prune`,
/// whose exact subset search issues the probes it can answer.
fn class_layer_on(opts: &EcoOptions) -> bool {
    opts.method == SupportMethod::SatPrune
}

/// Deterministic seed for a target's class layer, from the target index
/// and the refinement iteration, so classed runs are reproducible.
fn classes_seed(target_index: usize, refinement: usize) -> u64 {
    (target_index as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(refinement as u64)
}

/// Reports a support solver's class-layer counters (a no-op without an
/// attached [`EquivClasses`], i.e. outside `SAT_prune`).
fn emit_classes_report(obs: &ObserverHandle, ss: &SupportSolver, target_index: usize) {
    let Some((oracle_hits, stats)) = ss.classes_stats() else {
        return;
    };
    obs.emit(|| EcoEvent::ClassesReport {
        target_index: Some(target_index),
        oracle_hits,
        inherited_answers: stats.inherited_answers,
        refinement_rounds: stats.refinement_rounds,
        witness_replays: stats.witness_replays,
    });
}

/// Only pure, full-effort results enter the solve cache: a degraded or
/// skipped disposition — or any governor trip or injected fault during
/// the run so far — means the result reflects resource pressure, not
/// the subproblem, and caching it would leak that pressure into later
/// unrelated runs.
fn solve_is_cacheable(report: &TargetPatchReport, governor: Option<&ResourceGovernor>) -> bool {
    matches!(report.disposition, TargetDisposition::Patched)
        && !governor.is_some_and(|g| g.trip().is_some() || g.fault_injections() != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cec::check_equivalence;

    fn and_vs_or_problem() -> EcoProblem {
        let mut im = Aig::new();
        let (a, b) = (im.add_input(), im.add_input());
        let t = im.and(a, b);
        im.add_output(t);
        let t_node = t.node();
        let mut sp = Aig::new();
        let (a, b) = (sp.add_input(), sp.add_input());
        let o = sp.or(a, b);
        sp.add_output(o);
        EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid")
    }

    fn run_with(method: SupportMethod, p: &EcoProblem) -> EcoOutcome {
        let options = EcoOptions::builder().method(method).build();
        EcoEngine::new(options)
            .solve(&p.snapshot())
            .expect("engine run")
    }

    #[test]
    fn single_target_all_methods_verify() {
        let p = and_vs_or_problem();
        for m in [
            SupportMethod::AnalyzeFinal,
            SupportMethod::MinimizeAssumptions,
            SupportMethod::SatPrune,
        ] {
            let out = run_with(m, &p);
            assert!(out.verified, "{m:?} must verify");
            assert_eq!(out.reports.len(), 1);
            assert_eq!(out.reports[0].kind, PatchKind::Sat);
        }
    }

    #[test]
    fn multi_target_verifies() {
        // impl y = (a&b) & (b&c); spec y = a ^ c; both ANDs are targets.
        let mut im = Aig::new();
        let (a, b, c) = (im.add_input(), im.add_input(), im.add_input());
        let t1 = im.and(a, b);
        let t2 = im.and(b, c);
        let y = im.and(t1, t2);
        im.add_output(y);
        let mut sp = Aig::new();
        let (a, _b, c) = (sp.add_input(), sp.add_input(), sp.add_input());
        let y = sp.xor(a, c);
        sp.add_output(y);
        let p = EcoProblem::with_unit_weights(im, sp, vec![t1.node(), t2.node()]).expect("valid");
        for m in [
            SupportMethod::AnalyzeFinal,
            SupportMethod::MinimizeAssumptions,
            SupportMethod::SatPrune,
        ] {
            let out = run_with(m, &p);
            assert!(out.verified, "{m:?} must verify");
            assert_eq!(out.reports.len(), 2);
        }
    }

    #[test]
    fn insufficient_targets_error() {
        // impl: y0 = t, y1 = !t; spec: y0 = y1 = a. No single patch works.
        let mut im = Aig::new();
        let (a, b) = (im.add_input(), im.add_input());
        let t = im.and(a, b);
        im.add_output(t);
        im.add_output(!t);
        let mut sp = Aig::new();
        let (a, _b) = (sp.add_input(), sp.add_input());
        sp.add_output(a);
        sp.add_output(a);
        let p = EcoProblem::with_unit_weights(im, sp, vec![t.node()]).expect("valid");
        let err = EcoEngine::new(EcoOptions::default())
            .solve(&p.snapshot())
            .unwrap_err();
        assert!(matches!(err, EcoError::TargetsInsufficient { .. }));
    }

    #[test]
    fn structural_fallback_on_zero_budget() {
        let p = and_vs_or_problem();
        let options = EcoOptions::builder()
            .per_call_conflicts(Some(0))
            .cegar_min(false)
            .verify(false)
            .build();
        let out = EcoEngine::new(options)
            .solve(&p.snapshot())
            .expect("fallback run");
        assert_eq!(out.reports[0].kind, PatchKind::Structural);
        // Check equivalence out-of-band (the in-run verify had no budget).
        assert_eq!(
            check_equivalence(&out.patched_implementation, &p.specification, None),
            CecResult::Equivalent
        );
    }

    #[test]
    fn structural_fallback_with_cegar_min() {
        let p = and_vs_or_problem();
        let options = EcoOptions::builder()
            .per_call_conflicts(Some(0))
            .cegar_min(true)
            .verify(false)
            .build();
        let out = EcoEngine::new(options)
            .solve(&p.snapshot())
            .expect("fallback run");
        assert_eq!(out.reports[0].kind, PatchKind::StructuralCegarMin);
        assert_eq!(
            check_equivalence(&out.patched_implementation, &p.specification, None),
            CecResult::Equivalent
        );
    }

    #[test]
    fn weighted_problem_prefers_cheap_divisor() {
        // Same as the SAT_prune unit test but through the whole engine:
        // an xor divisor with low cost must be chosen over the inputs.
        let mut im = Aig::new();
        let (a, b) = (im.add_input(), im.add_input());
        let x = im.xor(a, b);
        let t = im.and(a, b);
        im.add_output(t);
        im.add_output(x);
        let mut sp = Aig::new();
        let (a2, b2) = (sp.add_input(), sp.add_input());
        let y = sp.xor(a2, b2);
        sp.add_output(y);
        sp.add_output(y);
        let mut weights = vec![50u64; im.num_nodes()];
        weights[x.node().index()] = 1;
        let p = EcoProblem::new(im, sp, vec![t.node()], weights).expect("valid");
        let out = run_with(SupportMethod::SatPrune, &p);
        assert!(out.verified);
        assert_eq!(out.total_cost, 1, "xor divisor should be the whole support");
        assert_eq!(out.reports[0].support_size, 1);
    }

    #[test]
    fn certificate_quantification_with_refinement_verifies() {
        // Force the certificate path on every step (threshold 0): the
        // projected certificate sets start incomplete, so the CEGAR
        // refinement loop must supply missing assignments.
        let mut im = Aig::new();
        let (a, b, c, d) = (
            im.add_input(),
            im.add_input(),
            im.add_input(),
            im.add_input(),
        );
        let t1 = im.and(a, b);
        let t2 = im.and(c, d);
        let t3 = im.and(a, !c);
        let y1 = im.and(t1, t2);
        let y2 = im.or(t3, t1);
        im.add_output(y1);
        im.add_output(y2);
        let mut sp = Aig::new();
        let (a, b, c, d) = (
            sp.add_input(),
            sp.add_input(),
            sp.add_input(),
            sp.add_input(),
        );
        let u1 = sp.xor(a, b);
        let u2 = sp.or(c, d);
        let y1 = sp.and(u1, u2);
        // y2 = u1 | c is reachable: t1 := u1, t2 := u2, t3 := c.
        let y2 = sp.or(u1, c);
        sp.add_output(y1);
        sp.add_output(y2);
        let p = EcoProblem::with_unit_weights(im, sp, vec![t1.node(), t2.node(), t3.node()])
            .expect("valid");
        let options = EcoOptions::builder()
            .exact_quantification_threshold(0)
            .build();
        match EcoEngine::new(options).solve(&p.snapshot()) {
            Ok(out) => assert!(out.verified, "refined quantification must verify"),
            Err(EcoError::TargetsInsufficient { .. }) => {
                panic!("instance is solvable by construction")
            }
            Err(e) => panic!("unexpected engine error: {e}"),
        }
    }

    #[test]
    fn applied_patches_reconstruct_the_result() {
        // The AppliedPatch records must re-derive the patched netlist.
        let p = and_vs_or_problem();
        let out = run_with(SupportMethod::MinimizeAssumptions, &p);
        assert_eq!(out.patches.len(), 1);
        let ap = &out.patches[0];
        assert_eq!(ap.target_index, 0);
        assert_eq!(ap.support.len(), ap.original_support.len());
        // All supports of a single-target run are original nodes.
        assert!(ap.original_support.iter().all(Option::is_some));
        let patch = eco_aig::NodePatch {
            aig: ap.aig.clone(),
            support: ap.support.clone(),
        };
        let mut patches = HashMap::new();
        patches.insert(p.targets[0], patch);
        let rebuilt = p.implementation.substitute(&patches).expect("acyclic");
        assert_eq!(
            check_equivalence(&rebuilt, &p.specification, None),
            CecResult::Equivalent
        );
    }

    #[test]
    fn helpers_enumerate_and_project() {
        assert_eq!(all_assignments(0), vec![Vec::<bool>::new()]);
        assert_eq!(all_assignments(2).len(), 4);
        let certs = vec![vec![true, false, true], vec![true, true, true]];
        let proj = project_certificates(&certs, &[0, 2]);
        assert_eq!(proj, vec![vec![true, true]]);
        let proj2 = project_certificates(&certs, &[1]);
        assert_eq!(proj2, vec![vec![false], vec![true]]);
    }

    #[test]
    fn already_equivalent_problem_yields_zero_cost_patch() {
        let mut im = Aig::new();
        let (a, b) = (im.add_input(), im.add_input());
        let t = im.and(a, b);
        im.add_output(t);
        let t_node = t.node();
        let sp = im.clone();
        let p = EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid");
        let out = run_with(SupportMethod::MinimizeAssumptions, &p);
        assert!(out.verified);
        // The patch must reproduce a & b (the original function).
        assert!(out.total_cost <= 2);
    }
}
