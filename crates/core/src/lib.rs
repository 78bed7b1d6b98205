//! Exact synthesis of reversible logic via quantified Boolean formulas.
//!
//! This crate implements the contribution of *"Quantified Synthesis of
//! Reversible Logic"* (R. Wille, H. M. Le, G. W. Dueck, D. Große —
//! DATE 2008): minimal-gate-count synthesis of (incompletely specified)
//! reversible functions, formulated as
//!
//! ```text
//! ∃ y₁₁ … y_d⌈log q⌉  ∀ x₁ … x_n .  (F_d = f)
//! ```
//!
//! where `F_d` is a cascade of `d` *universal gates* — multiplexers over
//! every gate of the chosen [`GateLibrary`] — and `f` is the specification.
//! The iterative-deepening driver (Figure 1 of the paper) raises `d` from 0
//! until the formula holds, which guarantees minimality.
//!
//! Three interchangeable engines decide the per-depth question:
//!
//! * [`Engine::Bdd`] — the paper's Section 5.2: build `F_d = f` as a BDD
//!   with variable order `X, Y`, universally quantify the inputs, and read
//!   **all** minimal networks off the remaining BDD over the gate-select
//!   variables (enabling quantum-cost selection, Tables 2/3).
//! * [`Engine::Qbf`] — Section 5.1: Tseitin-transform the cascade and hand
//!   the prenex `∃Y ∀X ∃A` instance to a QBF solver.
//! * [`Engine::Sat`] — the baseline of \[9\]/\[22\]: instantiate the cascade
//!   constraints once per truth-table row and solve with CDCL (exponential
//!   encoding; the approach the paper improves on).
//!
//! # Example
//!
//! ```
//! use qsyn_core::{synthesize, Engine, SynthesisOptions};
//! use qsyn_revlogic::{benchmarks, GateLibrary};
//!
//! let spec = benchmarks::spec_3_17();
//! let result = synthesize(
//!     &spec,
//!     &SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd),
//! )
//! .expect("3_17 is synthesizable");
//! assert_eq!(result.depth(), 6); // known minimal MCT gate count
//! // Every returned circuit realizes the specification:
//! for c in result.solutions().circuits() {
//!     assert!(spec.is_realized_by(c));
//! }
//! ```

#![warn(missing_docs)]

#[macro_use]
mod counters;

mod bdd_engine;
mod cancel;
mod driver;
mod encode;
pub mod equivalence;
mod error;
mod options;
pub mod permuted;
mod qbf_engine;
mod sat_engine;
mod session;
mod solutions;
pub mod transform;

pub use bdd_engine::BddEngine;
pub use cancel::CancelToken;
pub use driver::{depth_lower_bound, DepthSolver, IncrementalSolveStats, SynthesisResult};
pub use error::{Resource, SynthesisError};
pub use options::{Engine, SatSelectEncoding, SynthesisOptions, VarOrder};
pub use permuted::{synthesize, synthesize_in};
pub use qbf_engine::QbfEngine;
pub use sat_engine::SatEngine;
pub use session::{ResourceGovernor, SessionStats, SynthesisSession};
pub use solutions::SolutionSet;

// Re-export the domain types users need to drive the API.
pub use qsyn_revlogic::{Circuit, Gate, GateLibrary, Spec};

#[cfg(test)]
mod engine_tests;
