//! Cooperative resource governance for long SAT call chains.
//!
//! A [`ResourceGovernor`] is a cheaply-cloneable shared handle carrying
//! a wall-clock deadline, a global conflict pool drawn down across
//! *all* solver calls that share the handle, and a cooperative
//! cancellation flag. Each CLI run, daemon request or library call
//! builds its own governor from the limits its caller set; governors
//! do not nest. Attach it to any number of solvers
//! with [`Solver::set_governor`](crate::Solver::set_governor);
//! each solver then polls the governor periodically from inside its
//! search loop and returns [`SolveResult::Unknown`](crate::SolveResult)
//! promptly once the governor trips. An unlimited governor
//! (`GovernorLimits::default()`) never stops a call and leaves the
//! search unchanged.
//!
//! For deterministic robustness testing the governor can also carry a
//! [`FaultPlan`] that forces `Unknown` answers (or a cancellation) at
//! chosen call indices, seeded and reproducible.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`ResourceGovernor`] stopped (or is stopping) solver calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TripReason {
    /// [`ResourceGovernor::cancel`] was called.
    Cancelled,
    /// The wall-clock deadline passed.
    Deadline,
    /// The shared global conflict pool ran dry.
    GlobalBudget,
    /// A [`FaultPlan`] forced this call to fail (per-call, not sticky).
    FaultInjected,
}

impl TripReason {
    /// A short lowercase human-readable name (stable across versions,
    /// used in reports and CLI output).
    pub fn name(self) -> &'static str {
        match self {
            TripReason::Cancelled => "cancelled",
            TripReason::Deadline => "deadline",
            TripReason::GlobalBudget => "global budget",
            TripReason::FaultInjected => "fault injected",
        }
    }
}

impl std::fmt::Display for TripReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic schedule of injected solver failures, evaluated
/// against the 1-based global SAT-call index counted by the governor.
///
/// Plans are stateless functions of the call index, so a given plan and
/// call sequence always fails the same calls — the foundation of the
/// reproducible fault-injection tests.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultPlan {
    /// Fail exactly the listed call indices.
    AtCalls(Vec<u64>),
    /// Fail every `n`-th call (`n == 0` never fails).
    EveryNth(u64),
    /// Fail call `i` when `splitmix64(seed + i) % one_in == 0` — a
    /// seeded, reproducible pseudo-random schedule.
    Seeded {
        /// PRNG seed.
        seed: u64,
        /// Average one failure per this many calls (`0` never fails).
        one_in: u64,
    },
    /// Trigger a sticky [`TripReason::Cancelled`] at call `n` (and
    /// thereafter), exercising hard-stop paths deterministically.
    CancelAt(u64),
    /// Panic at the start of the first call whose index is `>= n`,
    /// simulating a solver bug deep inside a search. Serving layers
    /// wrap solve paths in `catch_unwind` and must turn this into a
    /// structured error instead of dying; `PanicAt(1)` panics on the
    /// governor's first call.
    PanicAt(u64),
}

impl FaultPlan {
    /// Whether this plan injects a (per-call) fault at `call`.
    fn injects(&self, call: u64) -> bool {
        match self {
            FaultPlan::AtCalls(calls) => calls.contains(&call),
            FaultPlan::EveryNth(n) => *n > 0 && call.is_multiple_of(*n),
            FaultPlan::Seeded { seed, one_in } => {
                *one_in > 0 && splitmix64(seed.wrapping_add(call)).is_multiple_of(*one_in)
            }
            FaultPlan::CancelAt(_) | FaultPlan::PanicAt(_) => false,
        }
    }

    /// Whether this plan cancels the governor at `call`.
    fn cancels(&self, call: u64) -> bool {
        matches!(self, FaultPlan::CancelAt(n) if call >= *n)
    }

    /// Whether this plan panics the calling thread at `call`.
    fn panics(&self, call: u64) -> bool {
        matches!(self, FaultPlan::PanicAt(n) if call >= *n)
    }
}

/// SplitMix64: the standard 64-bit finalizer-style PRNG step.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resource limits for a [`ResourceGovernor`]. All fields default to
/// "unlimited"/absent; construct with functional-update syntax over
/// [`GovernorLimits::default`].
#[derive(Clone, Debug, Default)]
pub struct GovernorLimits {
    /// Wall-clock deadline, measured from governor construction.
    pub timeout: Option<Duration>,
    /// Global conflict pool shared by every attached solver.
    pub global_conflicts: Option<u64>,
    /// Deterministic fault-injection schedule.
    pub fault_plan: Option<FaultPlan>,
}

#[derive(Debug)]
struct GovernorState {
    deadline: Option<Instant>,
    conflict_pool: Option<AtomicU64>,
    cancelled: AtomicBool,
    deadline_tripped: AtomicBool,
    budget_tripped: AtomicBool,
    calls: AtomicU64,
    fault_injections: AtomicU64,
    fault_plan: Option<FaultPlan>,
}

impl GovernorState {
    /// Whether the deadline (if any) has passed, latching the sticky
    /// flag on first observation.
    fn deadline_passed(&self) -> bool {
        if self.deadline_tripped.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.deadline_tripped.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

/// Shared governor for a chain of SAT calls: wall-clock deadline,
/// global budget pool and cooperative cancellation in one handle.
///
/// Cloning is cheap (an `Arc` bump) and every clone observes and
/// affects the same state, so the handle can be kept by the caller for
/// [`ResourceGovernor::cancel`] / inspection while clones ride inside
/// solvers.
///
/// # Examples
///
/// ```
/// use eco_sat::{FaultPlan, GovernorLimits, ResourceGovernor, SolveResult, Solver, TripReason};
///
/// // Fault-inject the very first solve: it must come back Unknown.
/// let governor = ResourceGovernor::new(GovernorLimits {
///     fault_plan: Some(FaultPlan::AtCalls(vec![1])),
///     ..GovernorLimits::default()
/// });
/// let mut solver = Solver::new();
/// let v = solver.new_var();
/// solver.add_clause(&[v.positive()]);
/// solver.set_governor(governor.clone());
/// assert_eq!(solver.solve(&[]), SolveResult::Unknown);
/// assert_eq!(governor.fault_injections(), 1);
/// // Fault trips are per-call, not sticky: the next call succeeds.
/// assert_eq!(solver.solve(&[]), SolveResult::Sat);
/// assert_eq!(governor.trip(), None);
///
/// // Cancellation is sticky and shared across every attached solver.
/// governor.cancel();
/// assert_eq!(governor.trip(), Some(TripReason::Cancelled));
/// assert_eq!(solver.solve(&[]), SolveResult::Unknown);
/// ```
#[derive(Clone, Debug)]
pub struct ResourceGovernor {
    state: Arc<GovernorState>,
}

impl ResourceGovernor {
    /// Creates a governor; the deadline clock starts now, so a zero
    /// timeout is expired at the first check.
    pub fn new(limits: GovernorLimits) -> ResourceGovernor {
        ResourceGovernor {
            state: Arc::new(GovernorState {
                deadline: limits.timeout.map(|t| Instant::now() + t),
                conflict_pool: limits.global_conflicts.map(AtomicU64::new),
                cancelled: AtomicBool::new(false),
                deadline_tripped: AtomicBool::new(false),
                budget_tripped: AtomicBool::new(false),
                calls: AtomicU64::new(0),
                fault_injections: AtomicU64::new(0),
                fault_plan: limits.fault_plan,
            }),
        }
    }

    /// Requests cooperative cancellation: every attached solver answers
    /// `Unknown` at its next check.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Relaxed);
    }

    /// The sticky trip reason, if any — checked in severity order
    /// (cancellation, deadline, then global budget). Per-call injected
    /// faults are *not* sticky and never appear here.
    pub fn trip(&self) -> Option<TripReason> {
        self.hard_trip().or_else(|| {
            self.state
                .budget_tripped
                .load(Ordering::Relaxed)
                .then_some(TripReason::GlobalBudget)
        })
    }

    /// Like [`ResourceGovernor::trip`] but only the *hard* reasons that
    /// warrant abandoning remaining work outright (cancellation or an
    /// expired deadline), not a drained budget pool, which still leaves
    /// room for SAT-free work.
    pub fn hard_trip(&self) -> Option<TripReason> {
        if self.state.cancelled.load(Ordering::Relaxed) {
            return Some(TripReason::Cancelled);
        }
        if self.state.deadline_passed() {
            return Some(TripReason::Deadline);
        }
        None
    }

    /// Number of faults injected so far by the [`FaultPlan`].
    pub fn fault_injections(&self) -> u64 {
        self.state.fault_injections.load(Ordering::Relaxed)
    }

    /// Whether the governor has tripped or injected a fault so far:
    /// anything computed under it may then reflect resource pressure
    /// rather than the problem alone.
    pub fn interfered(&self) -> bool {
        self.trip().is_some() || self.fault_injections() != 0
    }

    /// Time left before the deadline (`None` = no deadline). Zero once
    /// the deadline has passed.
    pub fn remaining_time(&self) -> Option<Duration> {
        self.state
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Draws `amount` from `pool`; returns `true` when the pool is now
    /// (or already was) empty.
    fn draw(pool: &AtomicU64, amount: u64) -> bool {
        let mut current = pool.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(amount);
            match pool.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return next == 0,
                Err(seen) => current = seen,
            }
        }
    }

    /// Called by an attached solver once at the start of every
    /// [`Solver::solve`](crate::Solver::solve); `true` aborts the call
    /// before any search happens.
    pub(crate) fn solve_started(&self) -> bool {
        let state = &self.state;
        let call = state.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(plan) = &state.fault_plan {
            if plan.cancels(call) {
                state.cancelled.store(true, Ordering::Relaxed);
            }
            if plan.panics(call) {
                state.fault_injections.fetch_add(1, Ordering::Relaxed);
                panic!("injected solver panic (fault plan, call {call})");
            }
            if plan.injects(call) {
                state.fault_injections.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        self.trip().is_some()
    }

    /// Called by an attached solver periodically from its search loop
    /// (and once more when a call finishes) with the conflicts spent
    /// since its previous report; `true` stops the current call.
    pub(crate) fn consume(&self, conflicts: u64) -> bool {
        if let Some(pool) = &self.state.conflict_pool {
            if ResourceGovernor::draw(pool, conflicts) {
                self.state.budget_tripped.store(true, Ordering::Relaxed);
            }
        }
        self.trip().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SolveResult, Solver};

    /// A 3-colourability-style instance that takes some search: pigeonhole
    /// PHP(n+1, n) encoded directly — hard enough to burn conflicts.
    fn pigeonhole(solver: &mut Solver, holes: usize) -> Vec<Vec<crate::Lit>> {
        let pigeons = holes + 1;
        let vars: Vec<Vec<_>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| solver.new_var()).collect())
            .collect();
        for p in &vars {
            let clause: Vec<_> = p.iter().map(|v| v.positive()).collect();
            solver.add_clause(&clause);
        }
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                for (a, b) in vars[p1].iter().zip(&vars[p2]) {
                    solver.add_clause(&[a.negative(), b.negative()]);
                }
            }
        }
        vars.into_iter()
            .map(|row| row.into_iter().map(|v| v.positive()).collect())
            .collect()
    }

    #[test]
    fn fault_plan_schedules_are_deterministic() {
        let plan = FaultPlan::Seeded { seed: 7, one_in: 4 };
        let a: Vec<bool> = (1..100).map(|i| plan.injects(i)).collect();
        let b: Vec<bool> = (1..100).map(|i| plan.injects(i)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "one_in=4 over 99 calls must fire");
        assert!(!a.iter().all(|&x| x), "and must not fire every call");

        let every = FaultPlan::EveryNth(3);
        assert!(!every.injects(1) && !every.injects(2) && every.injects(3));
        assert!(!FaultPlan::EveryNth(0).injects(1));
    }

    #[test]
    fn at_calls_faults_exactly_the_listed_calls() {
        let governor = ResourceGovernor::new(GovernorLimits {
            fault_plan: Some(FaultPlan::AtCalls(vec![2])),
            ..GovernorLimits::default()
        });
        let mut solver = Solver::new();
        let v = solver.new_var();
        solver.add_clause(&[v.positive()]);
        solver.set_governor(governor.clone());
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        assert_eq!(solver.solve(&[]), SolveResult::Unknown);
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        assert_eq!(solver.stats().solves, 3);
        assert_eq!(governor.state.calls.load(Ordering::Relaxed), 3);
        assert_eq!(governor.fault_injections(), 1);
        assert_eq!(governor.trip(), None, "faults are not sticky");
        assert!(governor.interfered(), "but they count as interference");
    }

    #[test]
    fn global_conflict_pool_is_shared_across_solvers() {
        let governor = ResourceGovernor::new(GovernorLimits {
            global_conflicts: Some(50),
            ..GovernorLimits::default()
        });
        let mut a = Solver::new();
        pigeonhole(&mut a, 7);
        a.set_governor(governor.clone());
        let mut b = a.clone();
        // The first solver drains the pool...
        assert_eq!(a.solve(&[]), SolveResult::Unknown);
        assert_eq!(governor.trip(), Some(TripReason::GlobalBudget));
        // ...so the second one is rejected at call entry.
        assert_eq!(b.solve(&[]), SolveResult::Unknown);
    }

    #[test]
    fn deadline_trips_solver_promptly() {
        let governor = ResourceGovernor::new(GovernorLimits {
            timeout: Some(Duration::from_millis(20)),
            ..GovernorLimits::default()
        });
        let mut solver = Solver::new();
        pigeonhole(&mut solver, 10);
        solver.set_governor(governor.clone());
        let t0 = Instant::now();
        let result = solver.solve(&[]);
        assert_eq!(result, SolveResult::Unknown);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "PHP(11,10) must be cut off far below its natural runtime"
        );
        assert_eq!(governor.trip(), Some(TripReason::Deadline));
        assert_eq!(governor.hard_trip(), Some(TripReason::Deadline));
    }

    #[test]
    fn cancellation_wins_over_other_reasons() {
        let governor = ResourceGovernor::new(GovernorLimits {
            global_conflicts: Some(1),
            ..GovernorLimits::default()
        });
        governor.cancel();
        assert_eq!(governor.trip(), Some(TripReason::Cancelled));
    }

    #[test]
    fn cancel_at_plan_sets_sticky_cancellation() {
        let governor = ResourceGovernor::new(GovernorLimits {
            fault_plan: Some(FaultPlan::CancelAt(2)),
            ..GovernorLimits::default()
        });
        let mut solver = Solver::new();
        let v = solver.new_var();
        solver.add_clause(&[v.positive()]);
        solver.set_governor(governor.clone());
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        assert_eq!(solver.solve(&[]), SolveResult::Unknown);
        assert_eq!(governor.trip(), Some(TripReason::Cancelled));
        assert_eq!(solver.solve(&[]), SolveResult::Unknown);
    }

    #[test]
    fn panic_at_plan_panics_inside_the_solver_call() {
        let governor = ResourceGovernor::new(GovernorLimits {
            fault_plan: Some(FaultPlan::PanicAt(2)),
            ..GovernorLimits::default()
        });
        let mut solver = Solver::new();
        let v = solver.new_var();
        solver.add_clause(&[v.positive()]);
        solver.set_governor(governor.clone());
        assert_eq!(solver.solve(&[]), SolveResult::Sat);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| solver.solve(&[])));
        let payload = unwound.expect_err("call 2 must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic carries a message");
        assert!(message.contains("injected solver panic"), "{message}");
        assert_eq!(governor.fault_injections(), 1);
        assert_eq!(governor.trip(), None, "a panic is not a sticky trip");
    }

    #[test]
    fn zero_deadline_root_is_expired_at_the_first_check() {
        let governor = ResourceGovernor::new(GovernorLimits {
            timeout: Some(Duration::ZERO),
            ..GovernorLimits::default()
        });
        assert_eq!(governor.hard_trip(), Some(TripReason::Deadline));
        assert_eq!(governor.trip(), Some(TripReason::Deadline));
        assert_eq!(governor.remaining_time(), Some(Duration::ZERO));
    }

    #[test]
    fn unlimited_governor_never_interferes() {
        let governor = ResourceGovernor::new(GovernorLimits::default());
        let mut solver = Solver::new();
        pigeonhole(&mut solver, 5);
        solver.set_governor(governor.clone());
        assert_eq!(solver.solve(&[]), SolveResult::Unsat);
        assert_eq!(solver.stats().solves, 1);
        assert_eq!(governor.state.calls.load(Ordering::Relaxed), 1);
        assert!(!governor.interfered());
        assert_eq!(governor.trip(), None);
    }
}
