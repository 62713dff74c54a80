//! # eco-sat
//!
//! A from-scratch CDCL SAT solver purpose-built for the ECO patch
//! engine of *"Efficient Computation of ECO Patch Functions"* (DAC
//! 2018), playing the role MiniSat plays in the paper.
//!
//! Highlights:
//!
//! - **Incremental solving under assumptions** with MiniSat-style
//!   [`Solver::conflict`] final-conflict analysis (`analyze_final`),
//!   which the paper's baseline uses for support extraction.
//! - **Budgets** ([`Solver::set_budget`]) so callers can emulate the
//!   paper's SAT timeouts and fall back to structural patching.
//! - **Pseudo-Boolean sums** ([`PbSum`]) via a binary adder network,
//!   used by the exact `SAT_prune` method to bound patch cost.
//! - **Resource governance** ([`ResourceGovernor`]): a shared handle
//!   carrying a wall-clock deadline, a global conflict pool and a
//!   cancellation flag, polled cooperatively from the search loop
//!   ([`Solver::set_governor`]), plus deterministic fault
//!   injection ([`FaultPlan`]) for robustness testing. Each run builds
//!   one governor from its caller's limits; governors do not nest.
//!
//! # Examples
//!
//! ```
//! use eco_sat::{Solver, SolveResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause(&[a.positive(), b.positive()]);
//! solver.add_clause(&[a.negative()]);
//! assert_eq!(solver.solve(&[]), SolveResult::Sat);
//! assert!(solver.model_value(b.positive()).is_true());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clause;
mod dimacs;
mod govern;
mod heap;
mod pb;
mod solver;
mod types;

pub use dimacs::{parse_dimacs, DimacsInstance, ParseDimacsError};
pub use govern::{FaultPlan, GovernorLimits, ResourceGovernor, TripReason};
pub use pb::PbSum;
pub use solver::{Solver, SolverStats};
pub use types::{LBool, Lit, SolveResult, Var};
