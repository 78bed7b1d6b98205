//! Conflict-driven clause-learning (CDCL) SAT solving and CNF construction.
//!
//! This crate fills the role MiniSat \[7\] plays in *"Quantified Synthesis of
//! Reversible Logic"* (Wille et al., DATE 2008): it solves the row-wise SAT
//! encoding of the exact-synthesis problem (the baseline of \[9\]/\[22\] that
//! the paper improves on) and provides the CNF/Tseitin machinery the QBF
//! engine needs to produce prenex-CNF instances.
//!
//! * [`Lit`], [`Var`], [`Clause`], [`CnfFormula`] — core CNF types,
//! * [`CnfBuilder`] — structural-to-CNF translation (Tseitin encoding \[20\])
//!   with gate helpers (`and`, `or`, `xor`, `mux`, `equal`, …),
//! * [`Solver`] — CDCL with two-watched literals, VSIDS decision heuristic,
//!   first-UIP clause learning, phase saving and Luby restarts, over one
//!   flat clause arena (every clause inline in a single `Vec<u32>`,
//!   compacted in clause order as learnt clauses are deleted),
//! * [`dimacs`] — DIMACS CNF reading/writing.
//!
//! # Example
//!
//! ```
//! use qsyn_sat::{CnfFormula, Lit, Solver, SolveResult};
//!
//! // (x1 ∨ x2) ∧ (¬x1 ∨ x2) ∧ (¬x2 ∨ x3)
//! let mut cnf = CnfFormula::new(3);
//! cnf.add_clause([Lit::pos(0), Lit::pos(1)]);
//! cnf.add_clause([Lit::neg(0), Lit::pos(1)]);
//! cnf.add_clause([Lit::neg(1), Lit::pos(2)]);
//!
//! let mut solver = Solver::from_formula(&cnf);
//! match solver.solve() {
//!     SolveResult::Sat(model) => {
//!         assert!(model[1] && model[2]);
//!     }
//!     SolveResult::Unsat => unreachable!("formula is satisfiable"),
//! }
//! ```

#![warn(missing_docs)]

mod arena;
mod builder;
mod cnf;
pub mod dimacs;
pub mod proof;
mod solver;
mod types;

pub use builder::CnfBuilder;
pub use cnf::{Clause, CnfFormula};
pub use solver::{SolveResult, Solver, SolverStats};
pub use types::{Lit, Var};

#[cfg(test)]
mod golden_tests;
#[cfg(test)]
mod random_tests;
