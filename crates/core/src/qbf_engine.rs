//! The QBF-solver synthesis engine (Section 5.1 of the paper).
//!
//! The cascade `F_d = f` is translated to CNF level by level in the flip
//! form the row-wise SAT encoding shares ([`level_outputs`]), and the
//! specification side with the Tseitin transformation \[20\] — linear in
//! the circuit size. The full instance is the prenex formula
//! `∃Y ∀X ∃A . CNF(F_d = f)` with `A` the auxiliaries; each level's
//! gate literals `Y_i = k` are functions of `Y` alone and join the outer
//! block. Unlike the row-wise SAT encoding, the network constraints appear
//! **once**; the specification is enforced by the universal
//! quantification of the inputs.
//!
//! Every depth builds and solves its own prenex instance — there is no
//! state carried across depths, so [`SynthesisOptions::incremental`] does
//! not apply. The instance is decided by expanding `∀X` and handing the
//! expanded CNF to the CDCL solver, whose model also carries the `∃Y`
//! witness the circuit is decoded from.

use crate::encode::{decode_circuit, level_outputs, select_bits, LevelSelects};
use crate::error::SynthesisError;
use crate::options::SynthesisOptions;
use crate::sat_engine::solve_chunked;
use crate::session::{ResourceGovernor, SynthesisSession};
use crate::solutions::SolutionSet;
use qsyn_qbf::{ExpansionSolver, QbfFormula, Quantifier};
use qsyn_revlogic::{Circuit, Gate, Spec};
use qsyn_sat::{CnfBuilder, Lit, SolveResult, Solver};

/// QBF-based depth oracle; see the module docs.
pub struct QbfEngine {
    spec: Spec,
    gates: Vec<Gate>,
    sbits: u32,
    governor: ResourceGovernor,
    /// Size (vars, clauses) of the last generated instance.
    last_instance_size: (u32, usize),
}

impl std::fmt::Debug for QbfEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QbfEngine")
            .field("lines", &self.spec.lines())
            .field("gates", &self.gates.len())
            .finish_non_exhaustive()
    }
}

impl QbfEngine {
    /// Prepares an engine for `spec` under `options` with a throwaway
    /// session (see [`new_in`](Self::new_in)).
    pub fn new(spec: &Spec, options: &SynthesisOptions) -> QbfEngine {
        QbfEngine::new_in(spec, options, &mut SynthesisSession::new())
    }

    /// Prepares an engine inside `session`. Like the SAT baseline, the
    /// QBF engine keeps no BDD state; the session contributes the
    /// [`ResourceGovernor`] wiring and keeps construction uniform across
    /// engines.
    pub fn new_in(
        spec: &Spec,
        options: &SynthesisOptions,
        _session: &mut SynthesisSession,
    ) -> QbfEngine {
        let gates = options.library.enumerate(spec.lines());
        let sbits = select_bits(gates.len());
        let governor = ResourceGovernor::from_options(options);
        governor.arm();
        QbfEngine {
            spec: spec.clone(),
            gates,
            sbits,
            governor,
            last_instance_size: (0, 0),
        }
    }

    /// Size `(variables, clauses)` of the prenex instance the most recent
    /// [`solve_depth`](Self::solve_depth) call solved — equal to
    /// [`instance`](Self::instance)`(d)`'s, so the paper's polynomial-size
    /// claim is observable here.
    pub fn last_instance_size(&self) -> (u32, usize) {
        self.last_instance_size
    }

    /// Generates the prenex `∃Y ∀X ∃A` instance for depth `d`.
    pub fn instance(&self, d: u32) -> QbfFormula {
        let n = self.spec.lines();
        let y_count = d * self.sbits;
        // Variable layout: X = 0..n, Y = n..n+y_count, A = the rest.
        let mut b = CnfBuilder::new(n + y_count);
        let x_lits: Vec<Lit> = (0..n).map(|l| b.input(l)).collect();
        let y_lits: Vec<Lit> = (0..y_count).map(|i| b.input(n + i)).collect();

        // Cascade of universal gates.
        let mut state = x_lits.clone();
        for level in 0..d as usize {
            let selects = &y_lits[level * self.sbits as usize..(level + 1) * self.sbits as usize];
            state = self.universal_gate(&mut b, &state, selects);
        }

        // Row minterms over X, shared by all output constraints.
        let minterms: Vec<Lit> = (0..self.spec.num_rows() as u32)
            .map(|row| {
                let lits: Vec<Lit> = (0..n)
                    .map(|l| {
                        if (row >> l) & 1 == 1 {
                            x_lits[l as usize]
                        } else {
                            !x_lits[l as usize]
                        }
                    })
                    .collect();
                b.and_all(&lits)
            })
            .collect();
        // Per line: dc_l ∨ (F_{d,l} ⊙ on_l).
        for l in 0..n {
            let on_rows = self.spec.on_set(l);
            let on_lits: Vec<Lit> = on_rows.iter().map(|&r| minterms[r as usize]).collect();
            let f_l = b.or_all(&on_lits);
            let agree = b.xnor(state[l as usize], f_l);
            let dc_rows = self.spec.dc_set(l);
            if dc_rows.is_empty() {
                b.assert_lit(agree);
            } else {
                let dc_lits: Vec<Lit> = dc_rows.iter().map(|&r| minterms[r as usize]).collect();
                let dc = b.or_all(&dc_lits);
                let ok = b.or(dc, agree);
                b.assert_lit(ok);
            }
        }

        let mut is_aux = vec![false; b.num_vars() as usize];
        for &v in b.aux_vars() {
            is_aux[v as usize] = true;
        }
        let mut qbf = QbfFormula::new(b.num_vars());
        // ∃Y also binds each level's gate literals: functions of Y alone,
        // so the ∀-expansion shares them instead of copying them per input.
        qbf.add_block(
            Quantifier::Exists,
            (n..b.num_vars()).filter(|&v| !is_aux[v as usize]),
        );
        qbf.add_block(Quantifier::Forall, 0..n);
        qbf.add_block(Quantifier::Exists, b.aux_vars().iter().copied());
        for c in b.formula().clauses() {
            qbf.add_clause(c.lits().iter().copied());
        }
        qbf
    }

    /// One universal gate `U_G(state, selects)` in the shared flip form:
    /// per gate a literal `selects = k`, and per line the conditions under
    /// which the chosen gate flips it. Padding codes choose no gate and so
    /// act as the identity (Definition 2).
    fn universal_gate(&self, b: &mut CnfBuilder, state: &[Lit], selects: &[Lit]) -> Vec<Lit> {
        let sel = LevelSelects::binary(b, selects.to_vec(), self.gates.len());
        level_outputs(b, &self.gates, state, &sel)
    }

    /// Decides whether a `d`-gate realization exists by solving the
    /// prenex instance [`instance`](Self::instance)`(d)` with one
    /// ∀-expansion solve, whose model is the witness. Depths may be
    /// queried in any order.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::BudgetExceeded`] when the conflict budget runs
    /// out; cancellation errors from the governor, polled between conflict
    /// chunks and inside the CDCL search.
    pub fn solve_depth(&mut self, d: u32) -> Result<Option<SolutionSet>, SynthesisError> {
        self.governor.check(d)?;
        let qbf = self.instance(d);
        // Debug builds re-check the instance's prefix and matrix invariants,
        // including closure — every matrix variable must be quantified (see
        // `qsyn_audit`).
        #[cfg(debug_assertions)]
        if let Err(e) = qsyn_audit::formula_audit::audit_qbf(&qbf, true) {
            panic!("QBF instance for depth {d} failed the formula audit: {e}");
        }
        self.last_instance_size = (qbf.num_vars(), qbf.matrix().len());
        // Drive the backend SAT solve of the expansion ourselves so the
        // governor is polled between conflict chunks.
        let mut expansion = ExpansionSolver::new(&qbf);
        let cnf = expansion.expanded_cnf();
        let mut solver = Solver::from_formula(&cnf);
        let witness = match solve_chunked(&mut solver, &self.governor, d)? {
            SolveResult::Unsat => return Ok(None),
            // Original variables keep their indices in the expanded CNF, so
            // the model's prefix is the ∃Y witness (see
            // `ExpansionSolver::expanded_cnf`).
            SolveResult::Sat(model) => model[..qbf.num_vars() as usize].to_vec(),
        };
        let n = self.spec.lines();
        let circuit = if self.sbits == 0 {
            Circuit::from_gates(n, std::iter::repeat_n(self.gates[0], d as usize))
        } else {
            let y_count = (d * self.sbits) as usize;
            let bits: Vec<bool> = (0..y_count).map(|i| witness[n as usize + i]).collect();
            decode_circuit(n, &self.gates, self.sbits, &bits)
        };
        debug_assert!(
            self.spec.is_realized_by(&circuit),
            "QBF witness decodes to a circuit violating the spec"
        );
        Ok(Some(SolutionSet::single(circuit)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Engine;
    use qsyn_revlogic::{GateLibrary, LineSet, Permutation};
    use std::time::{Duration, Instant};

    fn opts() -> SynthesisOptions {
        SynthesisOptions::new(GateLibrary::mct(), Engine::Qbf)
    }

    #[test]
    fn depth_zero_identity() {
        let spec = Spec::from_permutation(&Permutation::identity(2));
        let mut e = QbfEngine::new(&spec, &opts());
        assert!(e.solve_depth(0).unwrap().is_some());
        let not_id = Spec::from_permutation(&Permutation::from_map(2, vec![1, 0, 2, 3]));
        let mut e2 = QbfEngine::new(&not_id, &opts());
        assert!(e2.solve_depth(0).unwrap().is_none());
    }

    #[test]
    fn finds_single_cnot() {
        let spec = Spec::from_permutation(&Permutation::from_fn(2, |v| v ^ ((v & 1) << 1)));
        let mut e = QbfEngine::new(&spec, &opts());
        assert!(e.solve_depth(0).unwrap().is_none());
        let sols = e.solve_depth(1).unwrap().expect("CNOT realizes it");
        assert_eq!(
            sols.circuits()[0].gates()[0],
            Gate::toffoli(LineSet::from_iter([0]), 1)
        );
    }

    #[test]
    fn cancelled_token_stops_solve_depth() {
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![3, 0, 1, 2]));
        let token = crate::CancelToken::new();
        let mut e = QbfEngine::new(&spec, &opts().with_cancel_token(token.clone()));
        assert!(e.solve_depth(0).unwrap().is_none());
        token.cancel();
        assert_eq!(
            e.solve_depth(1).unwrap_err(),
            SynthesisError::Cancelled { depth: 1 }
        );
    }

    #[test]
    fn cancellation_stops_the_expansion_solve_mid_depth() {
        // In a debug build hwb4's depth-8 instance is built and expanded in
        // ~60 ms and its CDCL refutation then runs for minutes: the cancel
        // lands mid-solve, and the solver's abort probe must stop it in
        // flight.
        let spec = qsyn_revlogic::benchmarks::by_name("hwb4").unwrap().spec;
        let token = crate::CancelToken::new();
        let mut e = QbfEngine::new(&spec, &opts().with_cancel_token(token.clone()));
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            token.cancel();
            Instant::now()
        });
        let outcome = e.solve_depth(8);
        let returned = Instant::now();
        let cancelled_at = canceller.join().unwrap();
        assert_eq!(outcome.unwrap_err(), SynthesisError::Cancelled { depth: 8 });
        let lag = returned.saturating_duration_since(cancelled_at);
        assert!(
            lag < Duration::from_secs(1),
            "returned {lag:?} after the cancel"
        );
    }

    #[test]
    fn instance_grows_linearly_with_depth() {
        // The headline property: the encoding is polynomial — one cascade,
        // not one per truth-table row. Doubling d roughly doubles the
        // instance, and the per-level increment is row-count independent.
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![3, 0, 1, 2]));
        let e = QbfEngine::new(&spec, &opts());
        let c1 = e.instance(1).matrix().len();
        let c2 = e.instance(2).matrix().len();
        let c3 = e.instance(3).matrix().len();
        assert_eq!(c3 - c2, c2 - c1, "per-level clause increment is constant");
    }

    #[test]
    fn incomplete_spec_synthesizes() {
        let spec = qsyn_revlogic::embedding::Embedding {
            lines: 3,
            input_lines: vec![0, 1],
            constants: vec![(2, false)],
            output_lines: vec![2],
        }
        .embed(|ab| (ab & 1) & (ab >> 1))
        .unwrap();
        let mut e = QbfEngine::new(&spec, &opts());
        assert!(e.solve_depth(0).unwrap().is_none());
        let sols = e.solve_depth(1).unwrap().expect("Toffoli suffices");
        assert!(spec.is_realized_by(&sols.circuits()[0]));
    }

    #[test]
    fn prefix_is_exists_forall_exists() {
        let spec = Spec::from_permutation(&Permutation::identity(2));
        let e = QbfEngine::new(&spec, &opts());
        let qbf = e.instance(1);
        let prefix = qbf.prefix();
        assert_eq!(prefix.len(), 3);
        assert_eq!(prefix[0].0, Quantifier::Exists); // Y
        assert_eq!(prefix[1].0, Quantifier::Forall); // X
        assert_eq!(prefix[2].0, Quantifier::Exists); // A
        assert_eq!(prefix[1].1.len(), 2);
    }
}
