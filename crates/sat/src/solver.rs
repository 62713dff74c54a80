//! A MiniSat-style CDCL SAT solver.
//!
//! Features required by the ECO engine:
//!
//! - incremental solving under assumptions ([`Solver::solve`]),
//! - final-conflict analysis over assumptions ([`Solver::conflict`],
//!   the `analyze_final` of MiniSat used by the paper's baseline),
//! - conflict budgets for timeout-style `Unknown` results,
//! - two-watched-literal propagation over a literal-indexed value table
//!   and a flat clause arena (`clause.rs`), with binary
//!   clauses flagged in their watchers, 1-UIP learning with memoized
//!   clause minimization, VSIDS decisions, phase saving, Luby restarts
//!   and activity-based learnt-clause reduction.

use crate::clause::{ClauseDb, ClauseRef};
use crate::govern::ResourceGovernor;
use crate::heap::VarHeap;
use crate::types::{LBool, Lit, SolveResult, Var};
use std::time::{Duration, Instant};

/// How many conflicts may pass between reports to the attached
/// [`ResourceGovernor`] from the search loop.
const CONTROL_CHECK_CONFLICTS: u64 = 128;
/// How many propagations may pass between governor reports (the
/// conflict-free bound on check latency, so a deadline
/// still stops a call that propagates a lot but hits few conflicts).
const CONTROL_CHECK_PROPAGATIONS: u64 = 8_192;

/// Statistics accumulated over the lifetime of a [`Solver`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of `solve` invocations.
    pub solves: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses deleted by database reduction.
    pub deleted_learnts: u64,
    /// Learnt clauses (including units) added by conflict analysis.
    pub learned_clauses: u64,
    /// Peak number of live learnt clauses in the database.
    pub peak_learnts: u64,
    /// Wall-clock time spent inside `solve`, accumulated only while
    /// timing is enabled via [`Solver::set_timing`] (zero otherwise).
    pub solve_time: Duration,
}

impl SolverStats {
    /// Counter deltas accumulated since an `earlier` snapshot of the
    /// same solver. `peak_learnts` is a high-water mark, not a counter,
    /// so the later snapshot's value is kept as-is.
    pub fn since(&self, earlier: SolverStats) -> SolverStats {
        SolverStats {
            solves: self.solves.saturating_sub(earlier.solves),
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            deleted_learnts: self.deleted_learnts.saturating_sub(earlier.deleted_learnts),
            learned_clauses: self.learned_clauses.saturating_sub(earlier.learned_clauses),
            peak_learnts: self.peak_learnts,
            solve_time: self.solve_time.saturating_sub(earlier.solve_time),
        }
    }
}

impl std::fmt::Display for SolverStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "solves={} decisions={} propagations={} conflicts={} restarts={} deleted={} \
             learned={} peak_learnts={} solve_time={:.3}s",
            self.solves,
            self.decisions,
            self.propagations,
            self.conflicts,
            self.restarts,
            self.deleted_learnts,
            self.learned_clauses,
            self.peak_learnts,
            self.solve_time.as_secs_f64()
        )
    }
}

/// The `reason` of a decision or an unassigned variable.
const NO_REASON: u32 = u32::MAX;

/// Tag bit in [`Watcher::cref`] marking a binary clause: its blocker is
/// the clause's other literal, so a visit never reads clause memory.
const BINARY: u32 = 1 << 31;

/// `seen` marks: a literal of the clause being learnt, and the two
/// memoized outcomes of [`Solver::lit_redundant`].
const SEEN_SOURCE: u8 = 1;
const SEEN_REMOVABLE: u8 = 2;
const SEEN_FAILED: u8 = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Watcher {
    /// The clause slot, with [`BINARY`] set for binary clauses.
    cref: u32,
    blocker: Lit,
}

/// Incremental CDCL SAT solver.
///
/// # Examples
///
/// Solve `(a ∨ b) ∧ (¬a ∨ b) ∧ (¬b ∨ c)` under the assumption `¬c`:
///
/// ```
/// use eco_sat::{Solver, SolveResult};
///
/// let mut s = Solver::new();
/// let (a, b, c) = (s.new_var(), s.new_var(), s.new_var());
/// s.add_clause(&[a.positive(), b.positive()]);
/// s.add_clause(&[a.negative(), b.positive()]);
/// s.add_clause(&[b.negative(), c.positive()]);
/// assert_eq!(s.solve(&[]), SolveResult::Sat);
/// assert_eq!(s.solve(&[c.negative()]), SolveResult::Unsat);
/// // The failed assumption set explains the conflict:
/// assert_eq!(s.conflict(), &[c.negative()]);
/// ```
#[derive(Clone, Debug)]
pub struct Solver {
    db: ClauseDb,
    watches: Vec<Vec<Watcher>>,
    /// Literal-indexed values: `vals[l]` is the value of literal `l`.
    vals: Vec<LBool>,
    polarity: Vec<bool>,
    decision_var: Vec<bool>,
    level: Vec<u32>,
    /// Per-variable reason clause slot, [`NO_REASON`] for decisions.
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    var_decay: f64,
    cla_inc: f64,
    cla_decay: f64,
    order: VarHeap,
    seen: Vec<u8>,
    /// Path stack of [`Solver::lit_redundant`]: the clause position to
    /// resume at and the literal whose reason is being walked.
    analyze_stack: Vec<(usize, Lit)>,
    analyze_toclear: Vec<Lit>,
    lbd_stamp: Vec<u32>,
    lbd_counter: u32,
    ok: bool,
    /// The last model, literal-indexed like `vals`.
    model: Vec<LBool>,
    conflict: Vec<Lit>,
    /// Scratch copy of the clause being added (sorted and simplified in
    /// place), reused across [`Solver::add_clause`] calls.
    intake: Vec<Lit>,
    conflict_budget: Option<u64>,
    budget_conflicts: u64,
    budget_propagations: u64,
    next_reduce: u64,
    num_reduces: u64,
    restart_base: u64,
    stats: SolverStats,
    governor: Option<ResourceGovernor>,
    control_last_conflicts: u64,
    control_last_propagations: u64,
    control_stop: bool,
    timing: bool,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with no variables or clauses.
    pub fn new() -> Solver {
        Solver {
            db: ClauseDb::new(),
            watches: Vec::new(),
            vals: Vec::new(),
            polarity: Vec::new(),
            decision_var: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            var_decay: 0.95,
            cla_inc: 1.0,
            cla_decay: 0.999,
            order: VarHeap::new(),
            seen: Vec::new(),
            analyze_stack: Vec::new(),
            analyze_toclear: Vec::new(),
            lbd_stamp: Vec::new(),
            lbd_counter: 0,
            ok: true,
            model: Vec::new(),
            conflict: Vec::new(),
            intake: Vec::new(),
            conflict_budget: None,
            budget_conflicts: 0,
            budget_propagations: 0,
            next_reduce: 30_000,
            num_reduces: 0,
            restart_base: 100,
            stats: SolverStats::default(),
            governor: None,
            control_last_conflicts: 0,
            control_last_propagations: 0,
            control_stop: false,
            timing: false,
        }
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Enables (or disables) wall-clock timing of [`Solver::solve`]
    /// calls, accumulated into [`SolverStats::solve_time`].
    ///
    /// Timing is off by default so unobserved runs never touch the
    /// clock; observers that want per-call latency switch it on.
    pub fn set_timing(&mut self, enabled: bool) {
        self.timing = enabled;
    }

    /// `false` once the clause set has been proven unsatisfiable outright
    /// (without assumptions).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Reserves room for at least `vars` more variables and `clauses`
    /// more problem clauses of about three literals, so that building a
    /// large encoding does not regrow every per-variable and per-clause
    /// table along the way.
    pub fn reserve(&mut self, vars: usize, clauses: usize) {
        self.vals.reserve(2 * vars);
        self.polarity.reserve(vars);
        self.decision_var.reserve(vars);
        self.level.reserve(vars);
        self.reason.reserve(vars);
        self.activity.reserve(vars);
        self.seen.reserve(vars);
        self.lbd_stamp.reserve(vars);
        self.watches.reserve(2 * vars);
        self.order.reserve(vars);
        self.db.reserve(clauses, 3 * clauses);
    }

    /// Creates a fresh decision variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.level.len() as u32);
        self.vals.push(LBool::Undef);
        self.vals.push(LBool::Undef);
        self.polarity.push(true); // default phase: assign false
        self.decision_var.push(true);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.seen.push(0);
        self.lbd_stamp.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(v, &self.activity);
        v
    }

    /// Sets the preferred phase of `v`: the value tried first when the
    /// solver branches on it.
    pub fn set_polarity(&mut self, v: Var, prefer_true: bool) {
        self.polarity[v.index()] = !prefer_true;
    }

    /// Marks whether `v` may be chosen as a decision variable. Frozen
    /// (non-decision) variables are only ever assigned by propagation —
    /// useful for auxiliary encodings whose values are implied.
    pub fn set_decision_var(&mut self, v: Var, decision: bool) {
        self.decision_var[v.index()] = decision;
        if decision && self.vals[v.positive().index()].is_undef() {
            self.order.insert(v, &self.activity);
        }
    }

    /// Limits the next [`Solver::solve`] calls to roughly the given number
    /// of conflicts (`None` lifts the limit); exceeding it yields
    /// [`SolveResult::Unknown`]. The budget is cumulative from the moment
    /// of this call.
    pub fn set_budget(&mut self, conflicts: Option<u64>) {
        self.conflict_budget = conflicts.map(|c| self.budget_conflicts + c);
    }

    /// Attaches a [`ResourceGovernor`], replacing any earlier one.
    ///
    /// The governor is asked once at the start of every
    /// [`Solver::solve`] and then periodically from the search loop with
    /// the conflicts spent since its previous report; once it trips (or
    /// injects a fault) the current call answers
    /// [`SolveResult::Unknown`]. One governor shared across several
    /// solvers bounds them all with one deadline, one global conflict
    /// pool and one cancellation flag.
    pub fn set_governor(&mut self, governor: ResourceGovernor) {
        self.governor = Some(governor);
        self.control_last_conflicts = self.budget_conflicts;
        self.control_last_propagations = self.budget_propagations;
        self.control_stop = false;
    }

    /// Reports outstanding work to the governor (the conflicts since
    /// the last report), recording a pending stop if it asks for one.
    fn control_flush(&mut self) {
        if let Some(governor) = &self.governor {
            let dc = self.budget_conflicts - self.control_last_conflicts;
            let dp = self.budget_propagations - self.control_last_propagations;
            if dc > 0 || dp > 0 {
                self.control_last_conflicts = self.budget_conflicts;
                self.control_last_propagations = self.budget_propagations;
                if governor.consume(dc) {
                    self.control_stop = true;
                }
            }
        }
    }

    /// Periodic in-search control check: flushes deltas to the governor
    /// once enough work has accumulated. Returns `true` when the
    /// current call must stop.
    fn control_check(&mut self) -> bool {
        if self.governor.is_none() {
            return false;
        }
        let dc = self.budget_conflicts - self.control_last_conflicts;
        let dp = self.budget_propagations - self.control_last_propagations;
        if dc >= CONTROL_CHECK_CONFLICTS || dp >= CONTROL_CHECK_PROPAGATIONS {
            self.control_flush();
        }
        self.control_stop
    }

    #[inline]
    fn value_lit(&self, l: Lit) -> LBool {
        self.vals[l.index()]
    }

    /// Value of `l` in the most recent model (after a `Sat` answer).
    pub fn model_value(&self, l: Lit) -> LBool {
        self.model.get(l.index()).copied().unwrap_or(LBool::Undef)
    }

    /// After an `Unsat` answer: the subset of the assumptions (in the
    /// polarity they were passed) that is sufficient for
    /// unsatisfiability. Empty when the clause set itself is
    /// unsatisfiable.
    ///
    /// This is MiniSat's `analyze_final` result, used directly by the
    /// paper's baseline support computation.
    pub fn conflict(&self) -> &[Lit] {
        &self.conflict
    }

    /// Adds a clause. Returns `false` if the clause set is now known
    /// unsatisfiable (the solver stays usable but every solve returns
    /// `Unsat`).
    ///
    /// # Panics
    ///
    /// Panics if called while the solver is not at decision level zero
    /// (i.e. from inside a search callback) or if a literal references a
    /// variable that was never created.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        for l in lits {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l:?} out of range"
            );
        }
        if !self.ok {
            return false;
        }
        let mut ps = std::mem::take(&mut self.intake);
        ps.clear();
        ps.extend_from_slice(lits);
        let ok = self.add_sorted_clause(&mut ps);
        self.intake = ps;
        ok
    }

    /// [`Solver::add_clause`] on the scratch copy `ps`: sorts,
    /// deduplicates and simplifies it in place against the level-0
    /// assignment, then stores it.
    fn add_sorted_clause(&mut self, ps: &mut Vec<Lit>) -> bool {
        ps.sort_unstable();
        ps.dedup();
        // Tautology check.
        for w in ps.windows(2) {
            if w[0] == !w[1] {
                return true;
            }
        }
        if ps.iter().any(|&l| self.value_lit(l) == LBool::True) {
            return true;
        }
        ps.retain(|&l| self.value_lit(l) != LBool::False);
        match ps.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(ps[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let cref = self.db.alloc(ps, false, 0);
                self.attach(cref);
                true
            }
        }
    }

    /// The watcher tag of a clause: its slot, flagged when binary.
    fn watch_tag(&self, cref: ClauseRef) -> u32 {
        debug_assert!(cref.0 & BINARY == 0, "clause slot ids stay below 2^31");
        if self.db.lits(cref).len() == 2 {
            cref.0 | BINARY
        } else {
            cref.0
        }
    }

    fn attach(&mut self, cref: ClauseRef) {
        let tag = self.watch_tag(cref);
        let (l0, l1) = {
            let c = self.db.lits(cref);
            (c[0], c[1])
        };
        self.watches[(!l0).index()].push(Watcher {
            cref: tag,
            blocker: l1,
        });
        self.watches[(!l1).index()].push(Watcher {
            cref: tag,
            blocker: l0,
        });
    }

    fn detach(&mut self, cref: ClauseRef) {
        let tag = self.watch_tag(cref);
        let (l0, l1) = {
            let c = self.db.lits(cref);
            (c[0], c[1])
        };
        for w in [(!l0).index(), (!l1).index()] {
            let list = &mut self.watches[w];
            let pos = list
                .iter()
                .position(|watcher| watcher.cref == tag)
                .expect("watcher must exist");
            list.swap_remove(pos);
        }
    }

    #[inline]
    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    #[inline]
    fn unchecked_enqueue(&mut self, p: Lit, from: u32) {
        debug_assert!(self.value_lit(p).is_undef());
        self.vals[p.index()] = LBool::True;
        self.vals[(!p).index()] = LBool::False;
        let v = p.var().index();
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = from;
        self.trail.push(p);
    }

    /// Propagates all enqueued facts; returns a conflicting clause if one
    /// arises.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut confl = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            self.budget_propagations += 1;
            let false_lit = !p;
            let mut i = 0;
            // Take the watch list to appease the borrow checker; indices
            // into `self.watches[p]` are edited in place. No watcher is
            // ever added to `p`'s own list while it is out: a clause
            // moving its watch off `false_lit` picks a literal that is
            // not false, so never `false_lit` itself.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            'watchers: while i < ws.len() {
                let Watcher { cref: tag, blocker } = ws[i];
                let blocker_value = self.vals[blocker.index()];
                if blocker_value == LBool::True {
                    i += 1;
                    continue;
                }
                if tag & BINARY != 0 {
                    // The blocker is the clause's other literal.
                    let cref = ClauseRef(tag & !BINARY);
                    i += 1;
                    if blocker_value == LBool::False {
                        // `analyze` reads a conflicting clause in order:
                        // store it as `[other, false_lit]`, the order a
                        // long clause gets below.
                        let c = self.db.lits_mut(cref);
                        debug_assert!(c.contains(&blocker) && c.contains(&false_lit));
                        c[0] = blocker;
                        c[1] = false_lit;
                        confl = Some(cref);
                        self.qhead = self.trail.len();
                        break;
                    }
                    self.unchecked_enqueue(blocker, cref.0);
                    continue;
                }
                let cref = ClauseRef(tag);
                let c = self.db.lits_mut(cref);
                if c[0] == false_lit {
                    c.swap(0, 1);
                }
                debug_assert_eq!(c[1], false_lit);
                let first = c[0];
                let first_value = self.vals[first.index()];
                if first != blocker && first_value == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..c.len() {
                    let lk = c[k];
                    if self.vals[lk.index()] != LBool::False {
                        c.swap(1, k);
                        self.watches[(!lk).index()].push(Watcher {
                            cref: tag,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                ws[i].blocker = first;
                i += 1;
                if first_value == LBool::False {
                    confl = Some(cref);
                    self.qhead = self.trail.len();
                    break;
                } else {
                    self.unchecked_enqueue(first, cref.0);
                }
            }
            debug_assert!(self.watches[p.index()].is_empty());
            self.watches[p.index()] = ws;
            if confl.is_some() {
                break;
            }
        }
        confl
    }

    fn var_bump_activity(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.decrease(v, &self.activity);
    }

    fn var_decay_activity(&mut self) {
        self.var_inc /= self.var_decay;
    }

    fn cla_bump_activity(&mut self, cref: ClauseRef) {
        let meta = self.db.meta_mut(cref);
        meta.activity += self.cla_inc as f32;
        if meta.activity > 1e20 {
            for r in self.db.learnt_refs() {
                self.db.meta_mut(r).activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn cla_decay_activity(&mut self) {
        self.cla_inc /= self.cla_decay;
    }

    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_counter += 1;
        let stamp = self.lbd_counter;
        let mut lbd = 0;
        let n = self.lbd_stamp.len();
        for &l in lits {
            let lv = self.level[l.var().index()] as usize;
            if lv > 0 && self.lbd_stamp[lv % n] != stamp {
                self.lbd_stamp[lv % n] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// Analyzes a conflict; returns the learnt clause (first literal is
    /// the asserting literal) and the backtrack level.
    ///
    /// A reason clause is read skipping its pivot variable rather than
    /// its first literal: `propagate` leaves binary reasons unordered.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = vec![Lit::UNDEF];
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            self.cla_bump_activity(confl);
            let pivot = p.map(Lit::var);
            let n = self.db.lits(confl).len();
            for k in 0..n {
                let q = self.db.lits(confl)[k];
                let v = q.var();
                if Some(v) == pivot {
                    continue;
                }
                if self.seen[v.index()] == 0 && self.level[v.index()] > 0 {
                    self.var_bump_activity(v);
                    self.seen[v.index()] = SEEN_SOURCE;
                    if self.level[v.index()] as usize >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next trail literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] != 0 {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index()] = 0;
            path_count -= 1;
            if path_count == 0 {
                break;
            }
            let reason = self.reason[pl.var().index()];
            debug_assert_ne!(reason, NO_REASON, "non-decision must have a reason");
            confl = ClauseRef(reason);
        }
        learnt[0] = !p.expect("asserting literal exists");

        // Deep conflict clause minimization, MiniSat-style.
        self.analyze_toclear.clear();
        self.analyze_toclear.extend_from_slice(&learnt);
        let abstract_levels: u32 = learnt[1..]
            .iter()
            .fold(0, |acc, l| acc | self.abstract_level(l.var()));
        let mut j = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            let keep = self.reason[l.var().index()] == NO_REASON
                || !self.lit_redundant(l, abstract_levels);
            if keep {
                learnt[j] = l;
                j += 1;
            }
        }
        learnt.truncate(j);
        for i in 0..self.analyze_toclear.len() {
            self.seen[self.analyze_toclear[i].var().index()] = 0;
        }

        // Compute the backtrack level: the second highest level in the
        // learnt clause.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };
        (learnt, bt)
    }

    #[inline]
    fn abstract_level(&self, v: Var) -> u32 {
        1 << (self.level[v.index()] & 31)
    }

    /// MiniSat's `litRedundant` with a path stack: checks whether `p` (a
    /// literal of the learnt clause, with a reason) is implied by the
    /// clause's other literals, walking reasons depth first. Every
    /// literal the walk settles is memoized in `seen` as removable or
    /// failed (and queued in `analyze_toclear`), so later calls of the
    /// same analysis never walk it again.
    fn lit_redundant(&mut self, p: Lit, abstract_levels: u32) -> bool {
        debug_assert_eq!(self.seen[p.var().index()], SEEN_SOURCE);
        self.analyze_stack.clear();
        let mut p = p;
        let mut i = 0;
        loop {
            let reason = ClauseRef(self.reason[p.var().index()]);
            let lits = self.db.lits(reason);
            if i < lits.len() {
                let l = lits[i];
                i += 1;
                let v = l.var().index();
                if v == p.var().index()
                    || self.level[v] == 0
                    || matches!(self.seen[v], SEEN_SOURCE | SEEN_REMOVABLE)
                {
                    continue;
                }
                if self.reason[v] == NO_REASON
                    || self.seen[v] == SEEN_FAILED
                    || self.abstract_level(l.var()) & abstract_levels == 0
                {
                    // Everything on the path depends on `l`.
                    self.analyze_stack.push((0, p));
                    for &(_, q) in &self.analyze_stack {
                        let seen = &mut self.seen[q.var().index()];
                        if *seen == 0 {
                            *seen = SEEN_FAILED;
                            self.analyze_toclear.push(q);
                        }
                    }
                    return false;
                }
                // Walk `l`'s reason, then resume `p`'s at position `i`.
                self.analyze_stack.push((i, p));
                i = 0;
                p = l;
            } else {
                let seen = &mut self.seen[p.var().index()];
                if *seen == 0 {
                    *seen = SEEN_REMOVABLE;
                    self.analyze_toclear.push(p);
                }
                match self.analyze_stack.pop() {
                    Some((resume, parent)) => {
                        i = resume;
                        p = parent;
                    }
                    None => return true,
                }
            }
        }
    }

    /// Computes the set of assumptions responsible for forcing `p` false
    /// (MiniSat `analyzeFinal`). `p` is the failed assumption in its
    /// original polarity; the result (in `self.conflict`) lists failed
    /// assumptions in original polarity.
    fn analyze_final(&mut self, p: Lit) {
        self.conflict.clear();
        self.conflict.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = 1;
        let start = self.trail_lim[0];
        for i in (start..self.trail.len()).rev() {
            let x = self.trail[i];
            let xv = x.var().index();
            if self.seen[xv] == 0 {
                continue;
            }
            match self.reason[xv] {
                NO_REASON => {
                    debug_assert!(self.level[xv] > 0);
                    // A decision here is an asserted assumption.
                    self.conflict.push(x);
                }
                r => {
                    for &q in self.db.lits(ClauseRef(r)) {
                        let qv = q.var().index();
                        if qv != xv && self.level[qv] > 0 {
                            self.seen[qv] = 1;
                        }
                    }
                }
            }
            self.seen[xv] = 0;
        }
        self.seen[p.var().index()] = 0;
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.vals[l.index()] = LBool::Undef;
            self.vals[(!l).index()] = LBool::Undef;
            // Phase saving.
            self.polarity[v.index()] = l.is_negated();
            self.reason[v.index()] = NO_REASON;
            if !self.order.contains(v) && self.decision_var[v.index()] {
                self.order.insert(v, &self.activity);
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level);
        self.qhead = self.trail.len();
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        loop {
            let v = self.order.pop(&self.activity)?;
            if self.vals[v.positive().index()].is_undef() && self.decision_var[v.index()] {
                return Some(v.lit(self.polarity[v.index()]));
            }
        }
    }

    fn reduce_db(&mut self) {
        let mut refs = self.db.learnt_refs();
        // Sort so the clauses to remove come first: high LBD, low activity.
        refs.sort_by(|&a, &b| {
            let ca = self.db.meta(a);
            let cb = self.db.meta(b);
            cb.lbd.cmp(&ca.lbd).then(
                ca.activity
                    .partial_cmp(&cb.activity)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let target = refs.len() / 2;
        let mut removed = 0;
        for &r in &refs {
            if removed >= target {
                break;
            }
            let lits = self.db.lits(r);
            if self.db.meta(r).lbd <= 2 || lits.len() == 2 {
                continue;
            }
            // Never remove a clause that is the reason for a current
            // assignment.
            let l0 = lits[0];
            let locked = self.value_lit(l0).is_true() && self.reason[l0.var().index()] == r.0;
            if locked {
                continue;
            }
            self.detach(r);
            self.db.free(r);
            removed += 1;
            self.stats.deleted_learnts += 1;
        }
        self.db.collect_garbage();
    }

    fn budget_exceeded(&self) -> bool {
        self.conflict_budget
            .is_some_and(|b| self.budget_conflicts >= b)
    }

    /// Search with at most `max_conflicts` conflicts (for restarts).
    fn search(&mut self, max_conflicts: u64, assumptions: &[Lit]) -> SolveResult {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                self.budget_conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.conflict.clear();
                    return SolveResult::Unsat;
                }
                let (learnt, bt_level) = self.analyze(confl);
                // Never backtrack past the assumptions that are still
                // consistent; re-asserting happens in the decision step.
                self.cancel_until(bt_level);
                self.stats.learned_clauses += 1;
                if learnt.len() == 1 {
                    debug_assert_eq!(self.decision_level(), 0);
                    self.unchecked_enqueue(learnt[0], NO_REASON);
                } else {
                    let lbd = self.compute_lbd(&learnt);
                    let first = learnt[0];
                    let cref = self.db.alloc(&learnt, true, lbd);
                    self.attach(cref);
                    self.cla_bump_activity(cref);
                    self.unchecked_enqueue(first, cref.0);
                }
                self.stats.peak_learnts = self.stats.peak_learnts.max(self.db.num_learnt as u64);
                self.var_decay_activity();
                self.cla_decay_activity();
            } else {
                if conflicts_here >= max_conflicts {
                    // Restart, but keep the assumption prefix of the trail
                    // (trail reuse: replaying hundreds of assumptions per
                    // restart dominates runtime on assumption-heavy
                    // instances like expression (2)).
                    let keep = assumptions.len().min(self.decision_level());
                    self.cancel_until(keep);
                    return SolveResult::Unknown;
                }
                if self.budget_exceeded() {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
                if self.control_check() {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
                // Glucose-style periodic reduction keyed on total conflicts.
                if self.stats.conflicts >= self.next_reduce {
                    self.num_reduces += 1;
                    self.next_reduce = self.stats.conflicts + 10_000 + 2_000 * self.num_reduces;
                    self.reduce_db();
                }
                // Assert pending assumptions as decisions.
                let mut next = None;
                while self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    match self.value_lit(p) {
                        LBool::True => {
                            // Already satisfied: open a dummy level.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.analyze_final(p);
                            return SolveResult::Unsat;
                        }
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let decision = match next {
                    Some(p) => p,
                    None => match self.pick_branch_lit() {
                        Some(p) => {
                            self.stats.decisions += 1;
                            p
                        }
                        None => {
                            // All variables assigned: model found.
                            self.model.clone_from(&self.vals);
                            return SolveResult::Sat;
                        }
                    },
                };
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(decision, NO_REASON);
            }
        }
    }

    /// Solves the current clause set under the given assumptions.
    ///
    /// Returns [`SolveResult::Sat`] with a model available through
    /// [`Solver::model_value`], [`SolveResult::Unsat`] with the failed
    /// assumption subset available through [`Solver::conflict`], or
    /// [`SolveResult::Unknown`] when a budget set via
    /// [`Solver::set_budget`] ran out.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        if self.timing {
            let start = Instant::now();
            let result = self.solve_inner(assumptions);
            self.stats.solve_time += start.elapsed();
            result
        } else {
            self.solve_inner(assumptions)
        }
    }

    /// The untimed body of [`Solver::solve`].
    fn solve_inner(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        self.model.clear();
        self.conflict.clear();
        self.control_stop = false;
        if let Some(governor) = &self.governor {
            self.control_last_conflicts = self.budget_conflicts;
            self.control_last_propagations = self.budget_propagations;
            if governor.solve_started() {
                self.control_stop = true;
                return SolveResult::Unknown;
            }
        }
        if !self.ok {
            return SolveResult::Unsat;
        }
        debug_assert_eq!(self.decision_level(), 0);
        let mut curr_restarts = 0u64;
        loop {
            let budget = luby(2.0, curr_restarts) * self.restart_base as f64;
            let status = self.search(budget as u64, assumptions);
            match status {
                SolveResult::Sat => {
                    self.cancel_until(0);
                    self.control_flush();
                    return SolveResult::Sat;
                }
                SolveResult::Unsat => {
                    self.cancel_until(0);
                    self.control_flush();
                    return SolveResult::Unsat;
                }
                SolveResult::Unknown => {
                    if self.budget_exceeded() || self.control_stop {
                        self.cancel_until(0);
                        self.control_flush();
                        return SolveResult::Unknown;
                    }
                    curr_restarts += 1;
                    self.stats.restarts += 1;
                }
            }
        }
    }
}

/// The reluctant-doubling (Luby) restart sequence.
fn luby(y: f64, mut x: u64) -> f64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    y.powi(seq as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nvars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat_and_model() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 2);
        assert!(s.add_clause(&[v[0].positive()]));
        assert!(s.add_clause(&[v[1].negative()]));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.model_value(v[0].positive()), LBool::True);
        assert_eq!(s.model_value(v[1].positive()), LBool::False);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[v.positive()]));
        assert!(!s.add_clause(&[v.negative()]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(!s.is_ok());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn tautology_is_dropped() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[v.positive(), v.negative()]));
        assert!(s.watches.iter().all(Vec::is_empty), "nothing is watched");
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn xor_chain_is_sat() {
        // x1 ^ x2 ^ x3 = 1 encoded as CNF; satisfiable.
        let mut s = Solver::new();
        let v = nvars(&mut s, 3);
        let (a, b, c) = (v[0], v[1], v[2]);
        // odd parity clauses
        s.add_clause(&[a.positive(), b.positive(), c.positive()]);
        s.add_clause(&[a.positive(), b.negative(), c.negative()]);
        s.add_clause(&[a.negative(), b.positive(), c.negative()]);
        s.add_clause(&[a.negative(), b.negative(), c.positive()]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let parity = [a, b, c]
            .iter()
            .filter(|&&x| s.model_value(x.positive()).is_true())
            .count();
        assert_eq!(parity % 2, 1);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p_{i,j}: pigeon i in hole j; 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[row[0].positive(), row[1].positive()]);
        }
        for i1 in 0..3 {
            for i2 in (i1 + 1)..3 {
                for (a, b) in p[i1].iter().zip(p[i2].iter()) {
                    s.add_clause(&[a.negative(), b.negative()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_restrict_and_release() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        assert_eq!(
            s.solve(&[v[0].negative(), v[1].negative()]),
            SolveResult::Unsat
        );
        // Releasing the assumptions makes it satisfiable again.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.solve(&[v[0].negative()]), SolveResult::Sat);
        assert!(s.model_value(v[1].positive()).is_true());
    }

    #[test]
    fn final_conflict_is_subset_of_assumptions() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 4);
        // v0 & v1 -> v2; assume v0, v1, !v2, v3 — v3 is irrelevant.
        s.add_clause(&[v[0].negative(), v[1].negative(), v[2].positive()]);
        let assumptions = [
            v[3].positive(),
            v[0].positive(),
            v[1].positive(),
            v[2].negative(),
        ];
        assert_eq!(s.solve(&assumptions), SolveResult::Unsat);
        let mut confl = s.conflict().to_vec();
        confl.sort_unstable();
        for l in &confl {
            assert!(
                assumptions.contains(l),
                "conflict literal {l:?} not an assumption"
            );
        }
        assert!(
            !confl.contains(&v[3].positive()),
            "irrelevant assumption must not appear"
        );
        assert!(confl.len() >= 2);
    }

    #[test]
    fn budget_yields_unknown_on_hard_instance() {
        // Pigeonhole PHP(6, 5): UNSAT, and refuting it takes many
        // conflicts, so a one-conflict budget cannot finish.
        let mut s = Solver::new();
        let (pigeons, holes) = (6, 5);
        let p: Vec<Vec<Var>> = (0..pigeons).map(|_| nvars(&mut s, holes)).collect();
        for row in &p {
            let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&clause);
        }
        for (i, row) in p.iter().enumerate() {
            for other in &p[i + 1..] {
                for (a, b) in row.iter().zip(other) {
                    s.add_clause(&[a.negative(), b.negative()]);
                }
            }
        }
        s.set_budget(Some(1));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        // Lifting the budget restores a definitive answer.
        s.set_budget(None);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn incremental_blocking_enumerates_models() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 3);
        let mut count = 0;
        while s.solve(&[]) == SolveResult::Sat {
            count += 1;
            assert!(count <= 8, "more models than possible");
            let block: Vec<Lit> = v
                .iter()
                .map(|&x| {
                    if s.model_value(x.positive()).is_true() {
                        x.negative()
                    } else {
                        x.positive()
                    }
                })
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn polarity_hint_is_respected_on_free_variable() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.set_polarity(v, true);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.model_value(v.positive()).is_true());
        let mut s2 = Solver::new();
        let w = s2.new_var();
        s2.set_polarity(w, false);
        assert_eq!(s2.solve(&[]), SolveResult::Sat);
        assert!(s2.model_value(w.positive()).is_false());
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<f64> = (0..9).map(|i| luby(2.0, i)).collect();
        assert_eq!(seq, vec![1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0]);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 3);
        s.add_clause(&[v[0].positive(), v[1].positive(), v[2].positive()]);
        s.solve(&[]);
        assert!(s.stats().solves == 1);
        assert!(s.stats().propagations > 0 || s.stats().decisions > 0);
    }

    #[test]
    fn unsat_without_assumptions_has_empty_conflict() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        s.add_clause(&[v[0].positive(), v[1].negative()]);
        s.add_clause(&[v[0].negative(), v[1].positive()]);
        s.add_clause(&[v[0].negative(), v[1].negative()]);
        assert_eq!(s.solve(&[v[0].positive()]), SolveResult::Unsat);
        // The formula itself is UNSAT; conflict may be empty or contain the
        // assumption — but solving with no assumptions reports UNSAT with an
        // empty conflict.
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.conflict().is_empty());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn frozen_variables_are_never_decided() {
        let mut s = Solver::new();
        let a = s.new_var();
        let aux = s.new_var();
        s.set_decision_var(aux, false);
        // aux is implied by a (aux <-> a) so propagation still assigns it.
        s.add_clause(&[a.negative(), aux.positive()]);
        s.add_clause(&[a.positive(), aux.negative()]);
        assert_eq!(s.solve(&[a.positive()]), SolveResult::Sat);
        assert!(s.model_value(aux.positive()).is_true());
        // Re-enabling decisions keeps the solver usable.
        s.set_decision_var(aux, true);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn stats_display_is_complete() {
        let s = Solver::new();
        let text = s.stats().to_string();
        for field in [
            "solves=",
            "decisions=",
            "propagations=",
            "conflicts=",
            "restarts=",
            "learned=",
            "peak_learnts=",
            "solve_time=",
        ] {
            assert!(text.contains(field), "{text}");
        }
    }

    #[test]
    fn learned_clause_counters_track_conflicts() {
        // Odd parity chain: every conflict analysis learns a clause.
        let mut s = Solver::new();
        let n = 14;
        let xs: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for i in 0..n - 2 {
            let (a, b, c) = (xs[i], xs[i + 1], xs[i + 2]);
            s.add_clause(&[a.positive(), b.positive(), c.positive()]);
            s.add_clause(&[a.positive(), b.negative(), c.negative()]);
            s.add_clause(&[a.negative(), b.positive(), c.negative()]);
            s.add_clause(&[a.negative(), b.negative(), c.positive()]);
        }
        let mut mixed: Vec<Lit> = xs.iter().map(|v| v.positive()).collect();
        mixed[0] = !mixed[0];
        let before = *s.stats();
        let _ = s.solve(&mixed);
        let _ = s.solve(&[]);
        let delta = s.stats().since(before);
        assert_eq!(delta.solves, 2);
        // Every analyzed conflict learns a clause; only a root-level
        // conflict (impossible here: the formula itself is SAT) aborts
        // before learning.
        assert_eq!(
            delta.learned_clauses, delta.conflicts,
            "one learnt clause per analyzed conflict"
        );
        if delta.conflicts > 0 {
            assert!(s.stats().peak_learnts > 0);
            assert!(s.stats().peak_learnts <= s.stats().learned_clauses);
        }
    }

    #[test]
    fn stats_since_subtracts_counters() {
        let a = SolverStats {
            solves: 5,
            decisions: 100,
            propagations: 1000,
            conflicts: 40,
            restarts: 3,
            deleted_learnts: 7,
            learned_clauses: 40,
            peak_learnts: 12,
            solve_time: Duration::from_micros(900),
        };
        let b = SolverStats {
            solves: 2,
            decisions: 60,
            propagations: 400,
            conflicts: 10,
            restarts: 1,
            deleted_learnts: 2,
            learned_clauses: 10,
            peak_learnts: 9,
            solve_time: Duration::from_micros(400),
        };
        let d = a.since(b);
        assert_eq!(d.solves, 3);
        assert_eq!(d.decisions, 40);
        assert_eq!(d.propagations, 600);
        assert_eq!(d.conflicts, 30);
        assert_eq!(d.restarts, 2);
        assert_eq!(d.deleted_learnts, 5);
        assert_eq!(d.learned_clauses, 30);
        assert_eq!(d.peak_learnts, 12, "high-water mark is not subtracted");
        assert_eq!(d.solve_time, Duration::from_micros(500));
    }

    #[test]
    fn solve_time_accumulates_only_when_timing_is_enabled() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause(&[v.positive()]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(
            s.stats().solve_time,
            Duration::ZERO,
            "timing off by default"
        );
        s.set_timing(true);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.stats().solve_time > Duration::ZERO);
        let after = s.stats().solve_time;
        s.set_timing(false);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.stats().solve_time, after);
    }

    #[test]
    fn trail_reuse_across_restarts_preserves_correctness() {
        // Assumption-heavy UNSAT instance that needs several restarts.
        let mut s = Solver::new();
        let n = 14;
        let xs: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        // Odd parity chain constraints to force search.
        for i in 0..n - 2 {
            let (a, b, c) = (xs[i], xs[i + 1], xs[i + 2]);
            s.add_clause(&[a.positive(), b.positive(), c.positive()]);
            s.add_clause(&[a.positive(), b.negative(), c.negative()]);
            s.add_clause(&[a.negative(), b.positive(), c.negative()]);
            s.add_clause(&[a.negative(), b.negative(), c.positive()]);
        }
        let assumptions: Vec<Lit> = xs.iter().map(|v| v.positive()).collect();
        // All-true violates the xor chain (1^1^1 = 1 requires odd... the
        // chain forces x[i]^x[i+1]^x[i+2] = 1, satisfied by all-true), so
        // check both all-true and a mixed assumption set.
        let r1 = s.solve(&assumptions);
        let mut mixed = assumptions.clone();
        mixed[0] = !mixed[0];
        let r2 = s.solve(&mixed);
        // Consistency: re-solving yields identical answers.
        assert_eq!(s.solve(&assumptions), r1);
        assert_eq!(s.solve(&mixed), r2);
        assert_ne!(s.solve(&[]), SolveResult::Unknown);
    }
}
