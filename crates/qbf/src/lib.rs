//! Quantified Boolean formula (QBF) satisfiability.
//!
//! This crate plays the role of skizzo \[2\] in *"Quantified Synthesis of
//! Reversible Logic"* (Wille et al., DATE 2008): it decides prenex-CNF QBF
//! instances of the form the paper's Section 5.1 produces,
//! `∃Y ∀X ∃A . CNF(F_d = f)`.
//!
//! Two complete decision procedures are provided:
//!
//! * [`QdpllSolver`] — search-based QDPLL: branches in prefix order with
//!   unit propagation, **universal reduction** and pure-literal elimination.
//!   It is the independent reference for the expansion solver's verdicts.
//! * [`ExpansionSolver`] — expansion-based (the family skizzo's symbolic
//!   skolemization belongs to): universal variables are expanded
//!   innermost-first, duplicating inner existential variables, until a
//!   purely existential CNF remains, which is handed to the CDCL solver of
//!   [`qsyn_sat`]. This procedure also yields a **witness assignment** for
//!   the outermost existential block — exactly what the synthesis engine
//!   needs to reconstruct a circuit.
//!
//! # Example
//!
//! ```
//! use qsyn_qbf::{QbfFormula, Quantifier, ExpansionSolver, QdpllSolver};
//! use qsyn_sat::Lit;
//!
//! // ∃y ∀x . (y ∨ x) ∧ (y ∨ ¬x)  — true (pick y = 1).
//! let mut qbf = QbfFormula::new(2);
//! qbf.add_block(Quantifier::Exists, [0]);
//! qbf.add_block(Quantifier::Forall, [1]);
//! qbf.add_clause([Lit::pos(0), Lit::pos(1)]);
//! qbf.add_clause([Lit::pos(0), Lit::neg(1)]);
//!
//! assert!(QdpllSolver::new(&qbf).solve());
//! let witness = ExpansionSolver::new(&qbf).solve_with_witness().unwrap();
//! assert!(witness[0]); // y must be chosen true
//! ```

#![warn(missing_docs)]

mod expand;
mod formula;
pub mod qdimacs;
mod qdpll;

pub use expand::ExpansionSolver;
pub use formula::{QbfFormula, Quantifier};
pub use qdpll::QdpllSolver;

#[cfg(test)]
mod cross_tests;
