//! # eco-patch
//!
//! Umbrella crate for the from-scratch Rust reproduction of
//! *"Efficient Computation of ECO Patch Functions"* (Dao, Lee, Chen,
//! Lin, Jiang, Mishchenko, Brayton — DAC 2018): SAT-based,
//! resource-aware computation of multi-target ECO patch functions.
//!
//! This crate re-exports the workspace members:
//!
//! - [`sat`] — CDCL SAT solver with assumptions, `analyze_final`,
//!   budgets, and pseudo-Boolean sums,
//! - [`aig`] — And-Inverter Graphs, simulation, cubes/SOPs, factoring,
//! - [`netlist`] — contest-style Verilog netlists and weight files,
//! - [`graph`] — max-flow / node-capacitated min-cut,
//! - [`core`] — the ECO engine itself,
//! - [`daemon`] — the `eco_patchd` serving daemon (JSONL protocol,
//!   content-hash caches),
//! - [`benchgen`] — the synthetic ICCAD'17-style benchmark suite.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.
//!
//! # Examples
//!
//! ```
//! use eco_patch::aig::Aig;
//! use eco_patch::core::{EcoEngine, EcoOptions, EcoProblem};
//!
//! let mut im = Aig::new();
//! let a = im.add_input();
//! let b = im.add_input();
//! let t = im.and(a, b);
//! im.add_output(t);
//! let mut sp = Aig::new();
//! let a = sp.add_input();
//! let b = sp.add_input();
//! let y = sp.or(a, b);
//! sp.add_output(y);
//! let problem = EcoProblem::with_unit_weights(im, sp, vec![t.node()])?;
//! let outcome = EcoEngine::new(EcoOptions::default()).solve(&problem)?;
//! assert!(outcome.verified);
//! # Ok::<(), eco_patch::core::EcoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use eco_aig as aig;
pub use eco_benchgen as benchgen;
pub use eco_core as core;
pub use eco_daemon as daemon;
pub use eco_graph as graph;
pub use eco_netlist as netlist;
pub use eco_sat as sat;
