//! Search-based QDPLL: DPLL branching in prefix order with unit
//! propagation, universal reduction and pure-literal elimination.
//!
//! Complete but exponential — this mirrors the behaviour the paper observes
//! for general-purpose QBF search on the synthesis encoding ("the
//! performance of the QBF solver approach is low"). The expansion solver in
//! [`crate::ExpansionSolver`] is the faster alternative, and the one the
//! synthesis engine runs. QDPLL shares no code with it, which makes it the
//! reference the expansion verdicts are cross-checked against.

use crate::formula::{QbfFormula, Quantifier};
use qsyn_sat::Lit;

/// Search-based QBF decision procedure; see the module docs.
pub struct QdpllSolver {
    clauses: Vec<Vec<Lit>>,
    /// `(quantifier, block)` per variable; free variables are block 0 ∃.
    qmap: Vec<(Quantifier, u32)>,
    /// Variables in decision order (outermost first).
    order: Vec<u32>,
    assign: Vec<Option<bool>>,
}

impl std::fmt::Debug for QdpllSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QdpllSolver")
            .field("vars", &self.qmap.len())
            .field("clauses", &self.clauses.len())
            .finish_non_exhaustive()
    }
}

/// Result of simplification at a search node.
enum Status {
    /// All clauses satisfied.
    Sat,
    /// Some clause cannot be satisfied (after universal reduction).
    Conflict,
    /// Literal forced (existential unit or pure literal).
    Forced(Lit),
    /// No simplification applies; branch.
    Branch,
}

impl QdpllSolver {
    /// Prepares a solver for `formula`.
    pub fn new(formula: &QbfFormula) -> QdpllSolver {
        QdpllSolver {
            clauses: formula
                .matrix()
                .clauses()
                .iter()
                .map(|c| c.lits().to_vec())
                .collect(),
            qmap: formula.quantifier_map(),
            order: formula.decision_order(),
            assign: vec![None; formula.num_vars() as usize],
        }
    }

    /// Decides the formula. `true` = satisfiable (valid).
    pub fn solve(&mut self) -> bool {
        self.search()
    }

    fn search(&mut self) -> bool {
        let mut trail: Vec<u32> = Vec::new();
        let result = loop {
            match self.simplify() {
                Status::Sat => break true,
                Status::Conflict => break false,
                Status::Forced(l) => {
                    self.assign[l.var().index()] = Some(l.is_positive());
                    trail.push(l.var().0);
                }
                Status::Branch => {
                    let Some(&v) = self
                        .order
                        .iter()
                        .find(|&&v| self.assign[v as usize].is_none())
                    else {
                        // Fully assigned and no conflict: matrix satisfied.
                        break true;
                    };
                    let quant = self.qmap[v as usize].0;
                    break self.branch(v, quant);
                }
            }
        };
        self.unwind(&trail);
        result
    }

    fn branch(&mut self, v: u32, quant: Quantifier) -> bool {
        let mut outcome = match quant {
            Quantifier::Exists => false,
            Quantifier::Forall => true,
        };
        for val in [false, true] {
            self.assign[v as usize] = Some(val);
            let sub = self.search();
            self.assign[v as usize] = None;
            match quant {
                Quantifier::Exists => {
                    outcome |= sub;
                    if outcome {
                        break;
                    }
                }
                Quantifier::Forall => {
                    outcome &= sub;
                    if !outcome {
                        break;
                    }
                }
            }
        }
        outcome
    }

    fn unwind(&mut self, trail: &[u32]) {
        for &v in trail {
            self.assign[v as usize] = None;
        }
    }

    /// One pass of clause analysis: detects satisfaction, conflicts (with
    /// universal reduction), existential units and pure literals.
    fn simplify(&self) -> Status {
        let nvars = self.assign.len();
        // Polarity occurrence bits for pure-literal detection, counted over
        // unsatisfied clauses only.
        let mut pos_occ = vec![false; nvars];
        let mut neg_occ = vec![false; nvars];
        let mut all_satisfied = true;
        for clause in &self.clauses {
            let mut satisfied = false;
            let mut unassigned: Vec<Lit> = Vec::new();
            for &l in clause {
                match self.assign[l.var().index()] {
                    Some(val) if l.apply(val) => {
                        satisfied = true;
                        break;
                    }
                    Some(_) => {}
                    None => unassigned.push(l),
                }
            }
            if satisfied {
                continue;
            }
            all_satisfied = false;
            // Universal reduction: a universal literal is kept only if an
            // existential literal with a strictly larger (inner) block
            // remains in the clause.
            let max_e_level = unassigned
                .iter()
                .filter(|l| self.qmap[l.var().index()].0 == Quantifier::Exists)
                .map(|l| self.qmap[l.var().index()].1)
                .max();
            let effective: Vec<Lit> = unassigned
                .iter()
                .copied()
                .filter(|l| {
                    let (q, lvl) = self.qmap[l.var().index()];
                    match q {
                        Quantifier::Exists => true,
                        Quantifier::Forall => max_e_level.is_some_and(|e| lvl < e),
                    }
                })
                .collect();
            if effective.is_empty() {
                return Status::Conflict;
            }
            if effective.len() == 1 {
                debug_assert_eq!(self.qmap[effective[0].var().index()].0, Quantifier::Exists);
                return Status::Forced(effective[0]);
            }
            for &l in &unassigned {
                if l.is_positive() {
                    pos_occ[l.var().index()] = true;
                } else {
                    neg_occ[l.var().index()] = true;
                }
            }
        }
        if all_satisfied {
            return Status::Sat;
        }
        // Pure literals: existential set to satisfy, universal to falsify.
        for v in 0..nvars {
            if self.assign[v].is_some() {
                continue;
            }
            let (pos, neg) = (pos_occ[v], neg_occ[v]);
            if pos == neg {
                continue; // both polarities or no occurrence
            }
            let lit_true_polarity = pos; // the polarity that occurs
            let (q, _) = self.qmap[v];
            let value = match q {
                Quantifier::Exists => lit_true_polarity,
                Quantifier::Forall => !lit_true_polarity,
            };
            return Status::Forced(Lit::new(v as u32, value));
        }
        Status::Branch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_sat::Lit;

    fn xor_clauses(q: &mut QbfFormula, a: u32, b: u32) {
        // clauses for a ⊕ b = 1
        q.add_clause([Lit::pos(a), Lit::pos(b)]);
        q.add_clause([Lit::neg(a), Lit::neg(b)]);
    }

    #[test]
    fn forall_exists_xor_is_true() {
        let mut q = QbfFormula::new(2);
        q.add_block(Quantifier::Forall, [0]);
        q.add_block(Quantifier::Exists, [1]);
        xor_clauses(&mut q, 0, 1);
        assert!(QdpllSolver::new(&q).solve());
    }

    #[test]
    fn exists_forall_xor_is_false() {
        let mut q = QbfFormula::new(2);
        q.add_block(Quantifier::Exists, [1]);
        q.add_block(Quantifier::Forall, [0]);
        xor_clauses(&mut q, 0, 1);
        assert!(!QdpllSolver::new(&q).solve());
    }

    #[test]
    fn propositional_formulas_reduce_to_sat() {
        // Free variables only: behaves like SAT.
        let mut q = QbfFormula::new(2);
        q.add_clause([Lit::pos(0), Lit::pos(1)]);
        q.add_clause([Lit::neg(0)]);
        assert!(QdpllSolver::new(&q).solve());
        q.add_clause([Lit::neg(1)]);
        assert!(!QdpllSolver::new(&q).solve());
    }

    #[test]
    fn empty_matrix_is_valid() {
        let mut q = QbfFormula::new(1);
        q.add_block(Quantifier::Forall, [0]);
        assert!(QdpllSolver::new(&q).solve());
    }

    #[test]
    fn universal_unit_clause_is_false() {
        // ∀x (x) — false.
        let mut q = QbfFormula::new(1);
        q.add_block(Quantifier::Forall, [0]);
        q.add_clause([Lit::pos(0)]);
        assert!(!QdpllSolver::new(&q).solve());
    }

    #[test]
    fn universal_reduction_drops_trailing_universals() {
        // ∃e ∀u (e ∨ u): reduces to ∃e (e) — true.
        let mut q = QbfFormula::new(2);
        q.add_block(Quantifier::Exists, [0]);
        q.add_block(Quantifier::Forall, [1]);
        q.add_clause([Lit::pos(0), Lit::pos(1)]);
        assert!(QdpllSolver::new(&q).solve());
        // ∀u ∃e clause (u) alone — false even with unrelated e.
        let mut q2 = QbfFormula::new(2);
        q2.add_block(Quantifier::Forall, [0]);
        q2.add_block(Quantifier::Exists, [1]);
        q2.add_clause([Lit::pos(0)]);
        assert!(!QdpllSolver::new(&q2).solve());
    }

    #[test]
    fn two_level_game_formula() {
        // ∀x₁ ∃y₁ ∀x₂ ∃y₂ : y₁ = x₁ and y₂ = x₁ ⊕ x₂.
        // vars: x1=0, y1=1, x2=2, y2=3.
        let mut q = QbfFormula::new(4);
        q.add_block(Quantifier::Forall, [0]);
        q.add_block(Quantifier::Exists, [1]);
        q.add_block(Quantifier::Forall, [2]);
        q.add_block(Quantifier::Exists, [3]);
        // y1 = x1
        q.add_clause([Lit::neg(0), Lit::pos(1)]);
        q.add_clause([Lit::pos(0), Lit::neg(1)]);
        // y2 = x1 ⊕ x2: encode y2 ⊕ (x1 ⊕ x2) = 0 → 4 clauses.
        q.add_clause([Lit::pos(3), Lit::neg(0), Lit::pos(2)]);
        q.add_clause([Lit::pos(3), Lit::pos(0), Lit::neg(2)]);
        q.add_clause([Lit::neg(3), Lit::pos(0), Lit::pos(2)]);
        q.add_clause([Lit::neg(3), Lit::neg(0), Lit::neg(2)]);
        assert!(QdpllSolver::new(&q).solve());

        // Swapping y1's block before x1 makes it false (y1 can no longer
        // depend on x1).
        let mut q2 = QbfFormula::new(4);
        q2.add_block(Quantifier::Exists, [1]);
        q2.add_block(Quantifier::Forall, [0, 2]);
        q2.add_block(Quantifier::Exists, [3]);
        q2.add_clause([Lit::neg(0), Lit::pos(1)]);
        q2.add_clause([Lit::pos(0), Lit::neg(1)]);
        assert!(!QdpllSolver::new(&q2).solve());
    }

    #[test]
    fn solver_is_reusable() {
        let mut q = QbfFormula::new(2);
        q.add_block(Quantifier::Forall, [0]);
        q.add_block(Quantifier::Exists, [1]);
        xor_clauses(&mut q, 0, 1);
        let mut s = QdpllSolver::new(&q);
        assert!(s.solve());
        assert!(s.solve());
    }
}
