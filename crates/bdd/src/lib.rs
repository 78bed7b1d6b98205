//! Reduced ordered binary decision diagrams (ROBDDs) with quantification.
//!
//! This crate is the decision-diagram substrate of the `qsyn` workspace: it
//! plays the role CUDD plays in *"Quantified Synthesis of Reversible Logic"*
//! (Wille, Le, Dueck, Große — DATE 2008). It provides everything the
//! BDD-based synthesis engine of that paper needs:
//!
//! * hash-consed node storage with a fixed variable order (a [`Manager`]
//!   arena),
//! * the `ITE` operator and the usual Boolean connectives,
//! * **existential and universal quantification** (the paper's key step is
//!   `∀x₁…x_n (F_d = f)`),
//! * cofactors, functional composition and support computation,
//! * model counting and **all-model enumeration** (the paper reads *all*
//!   minimal networks off the 1-paths of the final BDD),
//! * `dot` export for debugging.
//!
//! # Example
//!
//! ```
//! use qsyn_bdd::Manager;
//!
//! let mut m = Manager::new(3);
//! let (a, b, c) = (m.var(0), m.var(1), m.var(2));
//! // f = (a ∧ b) ⊕ c
//! let ab = m.and(a, b);
//! let f = m.xor(ab, c);
//! assert_eq!(m.sat_count(f, 3), 4);
//!
//! // ∀a f — true exactly where f holds for both values of a:
//! // f(0,b,c) = c and f(1,b,c) = b ⊕ c, so ∀a f = ¬b ∧ c.
//! let g = m.forall_var(f, 0);
//! assert!(m.eval(g, &[false, false, true]));
//! assert!(!m.eval(g, &[false, true, true]));
//! ```
//!
//! The manager is an *arena* with **mark-and-sweep garbage collection**:
//! nodes live until a [`Manager::collect_garbage`] call proves them
//! unreachable from an explicit root set, after which their slots are
//! reused via a free list (see `gc.rs` for the root protocol). Operation
//! results are memoized in a fixed-size, direct-mapped **lossy computed
//! table** (CUDD's design): colliding entries overwrite each other, so the
//! cache is bounded by construction and never needs trimming. The fused
//! [`Manager::and_forall`] / [`Manager::and_exists`] kernels (the duals of
//! CUDD's `bddAndAbstract`) quantify a conjunction without ever
//! materializing it — the synthesis hot path.

#![warn(missing_docs)]

mod analysis;
pub mod audit;
mod cache;
mod dot;
mod gc;
mod hash;
mod manager;
mod ops;
mod quant;

pub use analysis::ModelIter;
pub use audit::{CacheSample, CachedOp, NodeEntry};
pub use hash::FibHashMap;
pub use manager::{Bdd, Manager, ManagerStats};

#[cfg(test)]
mod oracle_tests;
