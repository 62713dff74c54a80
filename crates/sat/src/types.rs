//! Core value types shared across the solver: variables, literals, and
//! the three-valued assignment domain.

use std::fmt;
use std::ops::Not;

/// A propositional variable, indexed densely from zero.
///
/// Variables are created by [`Solver::new_var`](crate::Solver::new_var) and
/// are valid only for the solver that created them.
///
/// # Examples
///
/// ```
/// use eco_sat::{Solver, Var};
///
/// let mut solver = Solver::new();
/// let v: Var = solver.new_var();
/// assert_eq!(v.index(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Creates a variable from a dense index.
    #[inline]
    pub fn from_index(index: usize) -> Var {
        Var(index as u32)
    }

    /// Returns the dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// Returns the negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit((self.0 << 1) | 1)
    }

    /// Returns the literal of this variable with the given sign.
    ///
    /// `negated == false` yields the positive literal.
    #[inline]
    pub fn lit(self, negated: bool) -> Lit {
        Lit((self.0 << 1) | negated as u32)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable together with a polarity.
///
/// Encoded as `var << 1 | sign`, where `sign == 1` means negated — the
/// classic MiniSat encoding, so `lit ^ 1` is the complement.
///
/// # Examples
///
/// ```
/// use eco_sat::{Lit, Var};
///
/// let v = Var::from_index(3);
/// let p = v.positive();
/// assert_eq!(!p, v.negative());
/// assert_eq!(p.var(), v);
/// assert!(!p.is_negated());
/// assert!((!p).is_negated());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// A placeholder literal that is never valid in a clause. Useful as a
    /// sentinel initializer.
    pub const UNDEF: Lit = Lit(u32::MAX);

    /// Creates a literal from its raw MiniSat-style encoding.
    #[inline]
    pub fn from_code(code: u32) -> Lit {
        Lit(code)
    }

    /// Returns the raw MiniSat-style encoding.
    #[inline]
    pub fn code(self) -> u32 {
        self.0
    }

    /// Returns the underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` if this is a negative (complemented) literal.
    #[inline]
    pub fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns the dense index of the literal (`2*var + sign`), usable for
    /// literal-indexed tables such as watch lists.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negated() {
            write!(f, "!v{}", self.0 >> 1)
        } else {
            write!(f, "v{}", self.0 >> 1)
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Three-valued assignment domain: true, false, or unassigned.
///
/// # Examples
///
/// ```
/// use eco_sat::LBool;
///
/// assert_eq!(LBool::from(true), LBool::True);
/// assert_eq!(LBool::Undef.to_option(), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
#[repr(u8)]
pub enum LBool {
    /// Assigned true.
    True = 0,
    /// Assigned false.
    False = 1,
    /// Not assigned.
    #[default]
    Undef = 2,
}

impl LBool {
    /// Converts to `Option<bool>`: `Undef` becomes `None`.
    #[inline]
    pub fn to_option(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// Returns `true` only when assigned true.
    #[inline]
    pub fn is_true(self) -> bool {
        self == LBool::True
    }

    /// Returns `true` only when assigned false.
    #[inline]
    pub fn is_false(self) -> bool {
        self == LBool::False
    }

    /// Returns `true` when unassigned.
    #[inline]
    pub fn is_undef(self) -> bool {
        self == LBool::Undef
    }
}

impl From<bool> for LBool {
    #[inline]
    fn from(value: bool) -> LBool {
        if value {
            LBool::True
        } else {
            LBool::False
        }
    }
}

/// Outcome of a (possibly budget-limited) solver invocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum SolveResult {
    /// A satisfying assignment was found; the model is available.
    Sat,
    /// The formula is unsatisfiable under the given assumptions; the final
    /// conflict is available.
    Unsat,
    /// The budget (conflicts or propagations) was exhausted.
    Unknown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_literal_roundtrip() {
        let v = Var::from_index(7);
        assert_eq!(v.index(), 7);
        assert_eq!(v.positive().var(), v);
        assert_eq!(v.negative().var(), v);
        assert!(v.negative().is_negated());
        assert!(!v.positive().is_negated());
        assert_eq!(v.lit(false), v.positive());
        assert_eq!(v.lit(true), v.negative());
    }

    #[test]
    fn literal_negation_is_involutive() {
        let l = Var::from_index(12).positive();
        assert_eq!(!!l, l);
        assert_ne!(!l, l);
        assert_eq!((!l).var(), l.var());
    }

    #[test]
    fn literal_codes_are_dense() {
        let v = Var::from_index(5);
        assert_eq!(v.positive().index(), 10);
        assert_eq!(v.negative().index(), 11);
        assert_eq!(Lit::from_code(10), v.positive());
    }

    #[test]
    fn lbool_conversions() {
        assert_eq!(LBool::from(true).to_option(), Some(true));
        assert_eq!(LBool::from(false).to_option(), Some(false));
        assert_eq!(LBool::Undef.to_option(), None);
        assert!(LBool::True.is_true());
        assert!(LBool::False.is_false());
        assert!(LBool::Undef.is_undef());
    }
}
