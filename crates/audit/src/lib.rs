//! Workspace invariant auditors (`qsyn-audit`).
//!
//! The paper's headline claim is *exactness*: the synthesis engines return
//! provably minimal networks. That guarantee is only as strong as the data
//! structures underneath it — a non-canonical BDD node, an out-of-bounds
//! CNF literal or a malformed gate silently invalidates every result built
//! on top of it. Following the same philosophy as the DRUP proof checker in
//! `qsyn-sat` (trust comes from *independent checking*, not from the
//! implementation), this crate re-validates the workspace's core invariants
//! from the outside:
//!
//! * [`bdd_audit`] — ROBDD manager consistency: unique-table agreement
//!   (including a walk of every bucket chain), strict variable ordering,
//!   no redundant or duplicate nodes, free-list integrity after garbage
//!   collection, and semantic re-validation of a
//!   sample of memoized operation results (including the fused
//!   quantified-AND kernels).
//! * [`formula_audit`] — CNF and prenex-QBF well-formedness: literal
//!   bounds, duplicate/tautological clauses, quantifier-prefix integrity
//!   and (optionally) closure.
//! * [`circuit_audit`] — reversible-circuit linting: per-gate
//!   well-formedness, gate-library membership, reversibility by exhaustive
//!   simulation, and quantum-cost-model consistency.
//!
//! The auditors are wired into the synthesis engines under
//! `debug_assertions`, into the CLI as `qsyn audit`, and into CI (see
//! `DESIGN.md` §9). [`self_test`] exercises every family against both a
//! known-good artifact and a seeded corruption, so a passing self-test
//! means the rejection paths demonstrably fire.

#![warn(missing_docs)]

pub mod bdd_audit;
pub mod circuit_audit;
pub mod formula_audit;

mod report;

pub use report::{AuditError, AuditFamily, Violation};

/// Outcome of [`self_test`]: how many checks ran per family.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTestReport {
    /// Good artifacts that passed their audit.
    pub accepted: u32,
    /// Seeded corruptions that were rejected.
    pub rejected: u32,
}

impl std::fmt::Display for SelfTestReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} clean artifacts accepted, {} seeded corruptions rejected",
            self.accepted, self.rejected
        )
    }
}

/// Runs every auditor family against a known-good artifact *and* a seeded
/// corruption of it.
///
/// # Errors
///
/// A message naming the failed check: either a clean artifact was rejected
/// or — worse — a corrupted one was accepted.
pub fn self_test() -> Result<SelfTestReport, String> {
    let mut report = SelfTestReport::default();

    // ---- BDD manager family -------------------------------------------
    let mut m = qsyn_bdd::Manager::new(4);
    let a = m.var(0);
    let b = m.var(1);
    let c = m.var(2);
    let ab = m.and(a, b);
    let f = m.xor(ab, c);
    let _ = m.forall(f, &[0, 1]);
    bdd_audit::audit_manager(&m).map_err(|e| format!("clean BDD manager rejected: {e}"))?;
    report.accepted += 1;

    // Swapping the children of the root of `f` leaves each node locally
    // well-formed but breaks unique-table agreement and falsifies cached
    // results that mention `f`.
    let (lo, hi) = m.children(f);
    m.corrupt_node_for_audit(f, m.raw_level(f), hi, lo);
    match bdd_audit::audit_manager(&m) {
        Err(e) if e.family == AuditFamily::Bdd => report.rejected += 1,
        Err(e) => return Err(format!("BDD corruption misattributed: {e}")),
        Ok(_) => return Err("corrupted BDD manager accepted".to_string()),
    }

    // A redundant node (lo == hi) violates canonicity outright.
    let mut m2 = qsyn_bdd::Manager::new(2);
    let v = m2.var(1);
    m2.corrupt_node_for_audit(v, 1, qsyn_bdd::Bdd::ONE, qsyn_bdd::Bdd::ONE);
    if bdd_audit::audit_manager(&m2).is_ok() {
        return Err("redundant BDD node accepted".to_string());
    }
    report.rejected += 1;

    // A garbage-collected manager (with a populated free list and fused
    // cache entries) must still audit green...
    let mut m3 = qsyn_bdd::Manager::new(4);
    let a = m3.var(0);
    let b = m3.var(1);
    let c = m3.var(2);
    let junk = m3.and(a, c);
    let keep = m3.or(a, b);
    let _ = (junk, m3.and_forall(keep, c, &[2]));
    let freed = m3.collect_garbage(&[keep]);
    if freed == 0 {
        return Err("GC self-test produced no garbage to free".to_string());
    }
    bdd_audit::audit_manager(&m3).map_err(|e| format!("swept BDD manager rejected: {e}"))?;
    report.accepted += 1;

    // ...but a free list aliasing a live slot (the node would be silently
    // overwritten by the next allocation) must be rejected.
    m3.corrupt_free_list_for_audit(keep);
    match bdd_audit::audit_manager(&m3) {
        Err(e) if e.family == AuditFamily::Bdd => report.rejected += 1,
        Err(e) => return Err(format!("free-list corruption misattributed: {e}")),
        Ok(_) => return Err("aliased free-list slot accepted".to_string()),
    }

    // A node unlinked from its unique-table chain is invisible to hash
    // consing (the next `mk` of its triple would build a twin): the chain
    // walk must miss it.
    let mut m4 = qsyn_bdd::Manager::new(4);
    let a = m4.var(0);
    let b = m4.var(1);
    let ab = m4.and(a, b);
    bdd_audit::audit_manager(&m4).map_err(|e| format!("clean BDD manager rejected: {e}"))?;
    m4.corrupt_unique_chain_for_audit(ab);
    match bdd_audit::audit_manager(&m4) {
        Err(e) if e.violations.iter().any(|v| v.check == "bdd.chain-count") => {
            report.rejected += 1;
        }
        Err(e) => return Err(format!("unique-chain corruption misattributed: {e}")),
        Ok(_) => return Err("node missing from its unique-table chain accepted".to_string()),
    }

    // ---- Formula family -----------------------------------------------
    let mut cnf = qsyn_sat::CnfFormula::new(3);
    cnf.add_clause([qsyn_sat::Lit::pos(0), qsyn_sat::Lit::neg(2)]);
    cnf.add_clause([qsyn_sat::Lit::pos(1)]);
    formula_audit::audit_cnf(&cnf).map_err(|e| format!("clean CNF rejected: {e}"))?;
    report.accepted += 1;

    // Raw clauses can smuggle in tautologies and out-of-range literals.
    let bad = [
        qsyn_sat::Clause::raw([qsyn_sat::Lit::pos(0), qsyn_sat::Lit::neg(0)]),
        qsyn_sat::Clause::raw([qsyn_sat::Lit::pos(7)]),
    ];
    if formula_audit::audit_clauses(3, &bad).is_ok() {
        return Err("corrupted clause list accepted".to_string());
    }
    report.rejected += 1;

    let mut qbf = qsyn_qbf::QbfFormula::new(2);
    qbf.add_block(qsyn_qbf::Quantifier::Exists, [0]);
    qbf.add_block(qsyn_qbf::Quantifier::Forall, [1]);
    qbf.add_clause([qsyn_sat::Lit::pos(0), qsyn_sat::Lit::neg(1)]);
    formula_audit::audit_qbf(&qbf, true).map_err(|e| format!("clean QBF rejected: {e}"))?;
    report.accepted += 1;

    // Leave variable 1 free: the closed-form audit must reject it.
    let mut open = qsyn_qbf::QbfFormula::new(2);
    open.add_block(qsyn_qbf::Quantifier::Exists, [0]);
    open.add_clause([qsyn_sat::Lit::pos(0), qsyn_sat::Lit::neg(1)]);
    if formula_audit::audit_qbf(&open, true).is_ok() {
        return Err("open QBF accepted by closed-form audit".to_string());
    }
    report.rejected += 1;

    // ---- Circuit family -----------------------------------------------
    use qsyn_revlogic::{Circuit, Gate, GateLibrary, LineSet};
    let good = Circuit::from_gates(
        3,
        [
            Gate::cnot(0, 1),
            Gate::toffoli(LineSet::from_iter([0, 1]), 2),
        ],
    );
    circuit_audit::audit_circuit(&good, Some(&GateLibrary::mct()))
        .map_err(|e| format!("clean circuit rejected: {e}"))?;
    report.accepted += 1;

    // A Peres gate is outside the MCT-only library.
    let off_library = Circuit::from_gates(3, [Gate::peres(0, 1, 2)]);
    if circuit_audit::audit_circuit(&off_library, Some(&GateLibrary::mct())).is_ok() {
        return Err("off-library gate accepted".to_string());
    }
    report.rejected += 1;

    // A Toffoli whose target is also a control (buildable only by writing
    // the variant directly — the constructors refuse it) is not injective.
    let overlapping = Gate::Toffoli {
        controls: LineSet::from_iter([0, 1]),
        negative_controls: LineSet::EMPTY,
        target: 0,
    };
    let corrupt = Circuit::from_gates(2, [overlapping]);
    match circuit_audit::audit_circuit(&corrupt, None) {
        Err(e) if e.family == AuditFamily::Circuit => report.rejected += 1,
        Err(e) => return Err(format!("circuit corruption misattributed: {e}")),
        Ok(_) => return Err("overlapping-lines gate accepted".to_string()),
    }

    circuit_audit::audit_cost_model(8).map_err(|e| format!("cost model audit failed: {e}"))?;
    report.accepted += 1;

    Ok(report)
}

#[cfg(test)]
mod prop_tests;

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        let report = super::self_test().expect("self test");
        assert!(report.accepted >= 5);
        assert!(report.rejected >= 5);
    }
}
