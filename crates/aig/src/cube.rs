//! Cubes and sum-of-products covers over an abstract variable space —
//! the representation produced by the paper's cube-enumeration patch
//! computation (Sec. 3.5) before factoring.

use crate::tt::TruthTable;
use std::fmt;

/// One literal of a cube: a variable index plus a polarity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CubeLit {
    /// Variable index in the cover's variable space.
    pub var: u32,
    /// `true` when the literal is complemented.
    pub negated: bool,
}

impl CubeLit {
    /// Creates a literal.
    pub fn new(var: u32, negated: bool) -> CubeLit {
        CubeLit { var, negated }
    }
}

/// A product term: a conjunction of literals over distinct variables,
/// stored sorted by variable. The empty cube is the constant-one
/// product.
///
/// # Examples
///
/// ```
/// use eco_aig::{Cube, CubeLit};
///
/// let c = Cube::new(vec![CubeLit::new(1, false), CubeLit::new(0, true)]);
/// assert_eq!(c.len(), 2);
/// assert!(c.eval(&[false, true]));  // !x0 & x1
/// assert!(!c.eval(&[true, true]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Cube {
    lits: Vec<CubeLit>,
}

impl Cube {
    /// Creates a cube, sorting the literals by variable.
    ///
    /// # Panics
    ///
    /// Panics if two literals mention the same variable.
    pub fn new(mut lits: Vec<CubeLit>) -> Cube {
        lits.sort_unstable();
        for w in lits.windows(2) {
            assert_ne!(w[0].var, w[1].var, "duplicate variable in cube");
        }
        Cube { lits }
    }

    /// The constant-one cube.
    pub fn one() -> Cube {
        Cube::default()
    }

    /// The literals, sorted by variable.
    pub fn lits(&self) -> &[CubeLit] {
        &self.lits
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// `true` for the constant-one cube.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// The polarity of `var` in this cube, if present.
    pub fn polarity_of(&self, var: u32) -> Option<bool> {
        self.lits
            .binary_search_by_key(&var, |l| l.var)
            .ok()
            .map(|i| self.lits[i].negated)
    }

    /// Evaluates the cube under a full assignment (indexed by variable).
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.lits
            .iter()
            .all(|l| assignment[l.var as usize] != l.negated)
    }

    /// Returns the cube with the literal of `var` removed (if present).
    pub fn without(&self, var: u32) -> Cube {
        Cube {
            lits: self.lits.iter().copied().filter(|l| l.var != var).collect(),
        }
    }

    /// The truth table of the cube over `num_vars` variables.
    pub fn truth_table(&self, num_vars: usize) -> TruthTable {
        let mut t = TruthTable::ones(num_vars);
        for l in &self.lits {
            let v = TruthTable::var(num_vars, l.var as usize);
            t = if l.negated { &t & &!&v } else { &t & &v };
        }
        t
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lits.is_empty() {
            return write!(f, "1");
        }
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, "&")?;
            }
            if l.negated {
                write!(f, "!")?;
            }
            write!(f, "x{}", l.var)?;
        }
        Ok(())
    }
}

/// A sum-of-products cover: a disjunction of [`Cube`]s over a shared
/// variable space of `num_vars` variables.
///
/// # Examples
///
/// ```
/// use eco_aig::{Cube, CubeLit, Sop};
///
/// // x0 | (!x1 & x2)
/// let sop = Sop::new(3, vec![
///     Cube::new(vec![CubeLit::new(0, false)]),
///     Cube::new(vec![CubeLit::new(1, true), CubeLit::new(2, false)]),
/// ]);
/// assert!(sop.eval(&[true, true, false]));
/// assert!(sop.eval(&[false, false, true]));
/// assert!(!sop.eval(&[false, true, false]));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Sop {
    num_vars: usize,
    cubes: Vec<Cube>,
}

impl Sop {
    /// Creates a cover from cubes.
    ///
    /// # Panics
    ///
    /// Panics if a cube references a variable `>= num_vars`.
    pub fn new(num_vars: usize, cubes: Vec<Cube>) -> Sop {
        for c in &cubes {
            for l in c.lits() {
                assert!((l.var as usize) < num_vars, "cube variable out of range");
            }
        }
        Sop { num_vars, cubes }
    }

    /// The constant-zero cover.
    pub fn zero(num_vars: usize) -> Sop {
        Sop {
            num_vars,
            cubes: Vec::new(),
        }
    }

    /// Number of variables of the cover's space.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The cubes of the cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// `true` when the cover has no cubes (constant zero).
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Appends a cube.
    pub fn push(&mut self, cube: Cube) {
        for l in cube.lits() {
            assert!(
                (l.var as usize) < self.num_vars,
                "cube variable out of range"
            );
        }
        self.cubes.push(cube);
    }

    /// Evaluates the cover under a full assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.cubes.iter().any(|c| c.eval(assignment))
    }

    /// The truth table of the cover (for small variable counts).
    pub fn truth_table(&self) -> TruthTable {
        let mut t = TruthTable::zeros(self.num_vars);
        for c in &self.cubes {
            t = &t | &c.truth_table(self.num_vars);
        }
        t
    }
}

impl fmt::Debug for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{c:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: u32, neg: bool) -> CubeLit {
        CubeLit::new(v, neg)
    }

    #[test]
    fn cube_sorts_and_evaluates() {
        let c = Cube::new(vec![lit(2, false), lit(0, true)]);
        assert_eq!(c.lits()[0].var, 0);
        assert!(c.eval(&[false, true, true]));
        assert!(!c.eval(&[true, true, true]));
        assert!(!c.eval(&[false, true, false]));
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_variable_panics() {
        let _ = Cube::new(vec![lit(1, false), lit(1, true)]);
    }

    #[test]
    fn empty_cube_is_one() {
        let c = Cube::one();
        assert!(c.is_empty());
        assert!(c.eval(&[]));
        assert!(c.truth_table(2).is_ones());
    }

    #[test]
    fn without_removes_literal() {
        let c = Cube::new(vec![lit(0, false), lit(1, true)]);
        let d = c.without(1);
        assert_eq!(d.lits(), &[lit(0, false)]);
        assert_eq!(c.without(9), c);
    }

    #[test]
    fn polarity_lookup() {
        let c = Cube::new(vec![lit(3, true)]);
        assert_eq!(c.polarity_of(3), Some(true));
        assert_eq!(c.polarity_of(1), None);
    }

    #[test]
    fn sop_truth_table_matches_eval() {
        let sop = Sop::new(
            3,
            vec![
                Cube::new(vec![lit(0, false), lit(1, false)]),
                Cube::new(vec![lit(2, true)]),
            ],
        );
        let tt = sop.truth_table();
        for row in 0..8usize {
            let a = [row & 1 == 1, row >> 1 & 1 == 1, row >> 2 & 1 == 1];
            assert_eq!(tt.get(row), sop.eval(&a), "row {row}");
        }
    }

    #[test]
    fn zero_cover() {
        let sop = Sop::zero(2);
        assert!(sop.is_empty());
        assert!(sop.truth_table().is_zero());
        assert!(!sop.eval(&[true, true]));
    }
}
