//! Randomized differential testing of the CDCL solver against a
//! brute-force evaluator on small CNFs (also with clauses added between
//! solves), plus assumption-semantics
//! properties on random 3-SAT at the threshold (40–80 variables) and
//! on a solver driven past its first learnt-clause reduction. Every
//! random instance is also solved by a twin with an unlimited resource
//! governor attached, which must search identically.

use eco_sat::{GovernorLimits, Lit, ResourceGovernor, SolveResult, Solver, SolverStats, Var};
use eco_testutil::{cases, Rng};

/// A clause as a list of signed variable indices (1-based, sign =
/// polarity) over `n` variables.
type RawClause = Vec<i32>;

fn random_clause(rng: &mut Rng, num_vars: i32) -> RawClause {
    let len = rng.range(1, 4) as usize;
    (0..len)
        .map(|_| {
            let v = rng.range(1, num_vars as u64 + 1) as i32;
            if rng.bool() {
                v
            } else {
                -v
            }
        })
        .collect()
}

fn random_cnf(rng: &mut Rng) -> (usize, Vec<RawClause>) {
    let n = rng.range(2, 9) as usize;
    let num_clauses = rng.range(1, 25) as usize;
    let cls = (0..num_clauses)
        .map(|_| random_clause(rng, n as i32))
        .collect();
    (n, cls)
}

fn to_lit(raw: i32) -> Lit {
    let v = Var::from_index(raw.unsigned_abs() as usize - 1);
    v.lit(raw < 0)
}

fn brute_force_sat(num_vars: usize, cnf: &[RawClause], fixed: &[(usize, bool)]) -> bool {
    'outer: for mask in 0u32..(1 << num_vars) {
        for &(v, val) in fixed {
            if (mask >> v & 1 == 1) != val {
                continue 'outer;
            }
        }
        let ok = cnf.iter().all(|clause| {
            clause.iter().any(|&raw| {
                let idx = raw.unsigned_abs() as usize - 1;
                let assigned = mask >> idx & 1 == 1;
                (raw > 0) == assigned
            })
        });
        if ok {
            return true;
        }
    }
    false
}

fn build_solver(num_vars: usize, cnf: &[RawClause]) -> Solver {
    let mut s = Solver::new();
    for _ in 0..num_vars {
        s.new_var();
    }
    for clause in cnf {
        let lits: Vec<Lit> = clause.iter().map(|&r| to_lit(r)).collect();
        s.add_clause(&lits);
    }
    s
}

/// The search work of a solver so far: conflicts, decisions and
/// propagations.
fn work(s: &Solver) -> (u64, u64, u64) {
    let SolverStats {
        conflicts,
        decisions,
        propagations,
        ..
    } = *s.stats();
    (conflicts, decisions, propagations)
}

/// A solver and a twin with an unlimited resource governor attached,
/// fed the same clauses and queries. Every call checks that both give
/// the same answer after the same conflicts, decisions and propagations.
struct Twin {
    plain: Solver,
    governed: Solver,
    ctx: String,
    /// The most conflicts and the most propagations one call spent.
    peak: (u64, u64),
}

impl Twin {
    fn new(num_vars: usize, cnf: &[RawClause], ctx: String) -> Self {
        let mut governed = build_solver(num_vars, cnf);
        governed.set_governor(ResourceGovernor::new(GovernorLimits::default()));
        Twin {
            plain: build_solver(num_vars, cnf),
            governed,
            ctx,
            peak: (0, 0),
        }
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        let ok = self.plain.add_clause(lits);
        assert_eq!(
            self.governed.add_clause(lits),
            ok,
            "{}: governed intake",
            self.ctx
        );
        ok
    }

    fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        let before = work(&self.plain);
        let got = self.plain.solve(assumptions);
        let after = work(&self.plain);
        let answer = self.governed.solve(assumptions);
        let (ctx, done) = (&self.ctx, work(&self.governed));
        assert_eq!(answer, got, "{ctx} under {assumptions:?}: governed answer");
        assert_eq!(done, after, "{ctx} under {assumptions:?}: governed work");
        self.peak.0 = self.peak.0.max(after.0 - before.0);
        self.peak.1 = self.peak.1.max(after.2 - before.2);
        got
    }
}

/// The calls `check_answer` makes, on a solver alone or on a twin.
trait Query {
    fn solver(&self) -> &Solver;
    fn query(&mut self, assumptions: &[Lit]) -> SolveResult;
}

impl Query for Solver {
    fn solver(&self) -> &Solver {
        self
    }
    fn query(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve(assumptions)
    }
}

impl Query for Twin {
    fn solver(&self) -> &Solver {
        &self.plain
    }
    fn query(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve(assumptions)
    }
}

#[test]
fn solver_matches_brute_force() {
    cases(256, |case, rng| {
        let (num_vars, cnf) = random_cnf(rng);
        let mut s = Twin::new(num_vars, &cnf, format!("case {case}"));
        let expect = brute_force_sat(num_vars, &cnf, &[]);
        let got = s.solve(&[]);
        assert_eq!(got == SolveResult::Sat, expect, "case {case}: {cnf:?}");
        if got == SolveResult::Sat {
            // The model must actually satisfy the formula.
            for clause in &cnf {
                let sat = clause
                    .iter()
                    .any(|&r| s.plain.model_value(to_lit(r)).is_true());
                assert!(sat, "case {case}: model violates clause {clause:?}");
            }
        }
    });
}

#[test]
fn assumptions_match_brute_force() {
    cases(256, |case, rng| {
        let (num_vars, cnf) = random_cnf(rng);
        let pattern: Vec<bool> = (0..8).map(|_| rng.bool()).collect();
        let mut s = Twin::new(num_vars, &cnf, format!("case {case}"));
        // Assume the first min(2, n) variables with the given polarities.
        let fixed: Vec<(usize, bool)> = (0..num_vars.min(2)).map(|i| (i, pattern[i])).collect();
        let assumptions: Vec<Lit> = fixed
            .iter()
            .map(|&(v, val)| Var::from_index(v).lit(!val))
            .collect();
        let expect = brute_force_sat(num_vars, &cnf, &fixed);
        let got = s.solve(&assumptions);
        assert_eq!(got == SolveResult::Sat, expect, "case {case}: {cnf:?}");
        if got == SolveResult::Unsat {
            // Failed assumptions must be a subset of the assumptions, and
            // assuming just them must still be UNSAT.
            let confl = s.plain.conflict().to_vec();
            for l in &confl {
                assert!(assumptions.contains(l), "case {case}");
            }
            assert_eq!(s.solve(&confl), SolveResult::Unsat, "case {case}");
        }
        // The solver must remain reusable after assumption solving.
        let expect_free = brute_force_sat(num_vars, &cnf, &[]);
        assert_eq!(s.solve(&[]) == SolveResult::Sat, expect_free, "case {case}");
    });
}

#[test]
fn clauses_added_between_solves_match_brute_force() {
    // The engine's CEGAR loops add blocking clauses between solves. Each
    // batch here mixes units, repeated literals, and literals on
    // variables an earlier unit fixed at level 0 (either polarity, so
    // the clause is either satisfied or loses that literal on intake).
    cases(256, |case, rng| {
        let (num_vars, mut cnf) = random_cnf(rng);
        let mut s = Twin::new(num_vars, &cnf, format!("case {case}"));
        let mut units: Vec<i32> = Vec::new();
        for round in 0..6 {
            for _ in 0..rng.range(1, 4) {
                let mut clause = random_clause(rng, num_vars as i32);
                match rng.below(4) {
                    0 => {
                        clause.truncate(1);
                        units.push(clause[0]);
                    }
                    1 => clause.push(clause[0]),
                    2 if !units.is_empty() => {
                        let u = units[rng.index(units.len())];
                        clause.push(if rng.bool() { u } else { -u });
                    }
                    _ => {}
                }
                let lits: Vec<Lit> = clause.iter().map(|&r| to_lit(r)).collect();
                cnf.push(clause);
                if !s.add_clause(&lits) {
                    assert!(
                        !brute_force_sat(num_vars, &cnf, &[]),
                        "case {case}.{round}: intake refuted a satisfiable {cnf:?}"
                    );
                }
            }
            let ctx = format!("case {case}.{round}: {cnf:?}");
            let got = s.solve(&[]);
            assert_eq!(
                got == SolveResult::Sat,
                brute_force_sat(num_vars, &cnf, &[]),
                "{ctx}"
            );
            check_answer(&mut s, &cnf, to_lit, &[], got, &ctx);
            let fixed: Vec<(usize, bool)> = (0..num_vars.min(2)).map(|v| (v, rng.bool())).collect();
            let assumptions: Vec<Lit> = fixed
                .iter()
                .map(|&(v, val)| Var::from_index(v).lit(!val))
                .collect();
            let got = s.solve(&assumptions);
            assert_eq!(
                got == SolveResult::Sat,
                brute_force_sat(num_vars, &cnf, &fixed),
                "{ctx} under {fixed:?}"
            );
            check_answer(&mut s, &cnf, to_lit, &assumptions, got, &ctx);
        }
    });
}

/// Random 3-SAT over `n` variables at the satisfiability threshold
/// (about 4.26 clauses per variable): three distinct variables per
/// clause, random polarities.
fn random_3sat(rng: &mut Rng, n: usize) -> Vec<RawClause> {
    let num_clauses = (n as f64 * 4.26).round() as usize;
    (0..num_clauses)
        .map(|_| {
            let mut vars: Vec<i32> = Vec::with_capacity(3);
            while vars.len() < 3 {
                let v = rng.range(1, n as u64 + 1) as i32;
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            vars.into_iter()
                .map(|v| if rng.bool() { v } else { -v })
                .collect()
        })
        .collect()
}

fn random_assumptions(rng: &mut Rng, n: usize, count: usize) -> Vec<Lit> {
    let mut vars: Vec<usize> = Vec::with_capacity(count);
    while vars.len() < count {
        let v = rng.index(n);
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    vars.into_iter()
        .map(|v| Var::from_index(v).lit(rng.bool()))
        .collect()
}

/// Checks one answer to a query on `cnf`, whose raw literals `lit`
/// maps into the solver: a `Sat` model satisfies every clause and every
/// assumption; after `Unsat` the final conflict is a subset of the
/// assumptions and re-solving under it alone is `Unsat` again.
fn check_answer(
    s: &mut impl Query,
    cnf: &[RawClause],
    lit: impl Fn(i32) -> Lit,
    assumptions: &[Lit],
    got: SolveResult,
    ctx: &str,
) {
    match got {
        SolveResult::Sat => {
            for clause in cnf {
                let sat = clause
                    .iter()
                    .any(|&r| s.solver().model_value(lit(r)).is_true());
                assert!(sat, "{ctx}: model violates clause {clause:?}");
            }
            for &a in assumptions {
                let holds = s.solver().model_value(a).is_true();
                assert!(holds, "{ctx}: model violates {a:?}");
            }
        }
        SolveResult::Unsat => {
            let core = s.solver().conflict().to_vec();
            for l in &core {
                assert!(assumptions.contains(l), "{ctx}: {l:?} is not an assumption");
            }
            assert_eq!(s.query(&core), SolveResult::Unsat, "{ctx}: core {core:?}");
        }
        SolveResult::Unknown => panic!("{ctx}: no budget was set"),
    }
}

#[test]
fn threshold_3sat_models_and_cores_hold() {
    // These searches run long enough for the governor's periodic
    // in-search reports (every 128 conflicts or 8 192 propagations).
    let mut peak = (0, 0);
    cases(12, |case, rng| {
        let n = rng.range(40, 81) as usize;
        let cnf = random_3sat(rng, n);
        let mut s = Twin::new(n, &cnf, format!("case {case}"));
        let got = s.solve(&[]);
        check_answer(&mut s, &cnf, to_lit, &[], got, &format!("case {case}"));
        // A fresh solver fed the clauses in reverse order searches
        // differently but must agree.
        let reversed: Vec<RawClause> = cnf.iter().rev().cloned().collect();
        assert_eq!(
            build_solver(n, &reversed).solve(&[]),
            got,
            "case {case}: reversed clause order"
        );
        for round in 0..6 {
            let assumptions = random_assumptions(rng, n, 8);
            let got = s.solve(&assumptions);
            check_answer(
                &mut s,
                &cnf,
                to_lit,
                &assumptions,
                got,
                &format!("case {case}.{round}"),
            );
        }
        peak = (peak.0.max(s.peak.0), peak.1.max(s.peak.1));
    });
    assert!(
        peak.0 >= 128 || peak.1 >= 8_192,
        "no call reached a periodic governor report: {peak:?}"
    );
}

/// Adds `cnf` over fresh variables, every clause switched on by a new
/// activation literal; returns the variables and the activation literal.
fn add_gated_block(s: &mut Solver, n: usize, cnf: &[RawClause]) -> (Vec<Var>, Lit) {
    let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
    let act = s.new_var().positive();
    for clause in cnf {
        let mut lits: Vec<Lit> = clause
            .iter()
            .map(|&r| vars[r.unsigned_abs() as usize - 1].lit(r < 0))
            .collect();
        lits.push(!act);
        s.add_clause(&lits);
    }
    (vars, act)
}

#[test]
fn solver_past_a_database_reduction_answers_like_a_fresh_one() {
    // One solver meets a stream of over-constrained random blocks, each
    // on fresh variables and switched on by its own activation literal,
    // refuted under it and then retired. The conflicts add up to the
    // first learnt-clause reduction (at 30 000 conflicts); after it,
    // new learnt clauses recycle the freed slots of a compacted arena.
    let mut rng = Rng::new(0x5eed_2026);
    let n = 100;
    let mut s = Solver::new();
    let mut blocks = 0;
    while s.stats().deleted_learnts == 0 {
        blocks += 1;
        assert!(blocks < 2_000, "no reduction after {blocks} blocks");
        let mut cnf = random_3sat(&mut rng, n);
        cnf.extend(random_3sat(&mut rng, n).into_iter().take(n / 2));
        let (vars, act) = add_gated_block(&mut s, n, &cnf);
        assert_ne!(s.solve(&[act]), SolveResult::Unknown);
        s.add_clause(&[!act]);
        for v in vars {
            s.set_decision_var(v, false);
        }
    }
    // Follow-up queries on a last block at the threshold, against a
    // fresh solver holding only that block.
    let cnf = random_3sat(&mut rng, n);
    let (vars, act) = add_gated_block(&mut s, n, &cnf);
    let mut fresh = build_solver(n, &cnf);
    for round in 0..40 {
        let assumptions = random_assumptions(&mut rng, n, 6);
        let expect = fresh.solve(&assumptions);
        let mut mapped: Vec<Lit> = assumptions
            .iter()
            .map(|l| vars[l.var().index()].lit(l.is_negated()))
            .collect();
        mapped.push(act);
        let got = s.solve(&mapped);
        let ctx = format!("round {round}: {assumptions:?}");
        assert_eq!(got, expect, "{ctx}");
        let lit = |r: i32| vars[r.unsigned_abs() as usize - 1].lit(r < 0);
        check_answer(&mut s, &cnf, lit, &mapped, got, &ctx);
    }
}
