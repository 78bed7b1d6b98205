//! The row-wise SAT baseline (Section 3 of the paper; the approach of
//! \[9\]/\[22\] that quantified synthesis improves on).
//!
//! The cascade constraints are instantiated **once per truth-table row**:
//! for each of the `2ⁿ` input rows, a separate copy of the `d`-level
//! network is built over row-specific value literals, all sharing the
//! gate-select variables. The instance therefore grows exponentially with
//! the number of lines — exactly the weakness the QBF formulation removes.
//!
//! Two gate-select encodings are provided: one-hot (as in the original
//! exact SAT synthesis \[9\]) and binary (the improvement direction of \[22\]).
//! Either way each row's level is encoded in flip form
//! ([`level_outputs`]): the chosen gate's flip conditions plus a frame per
//! line, with no per-gate netlist in any row.
//!
//! By default the engine rides one **persistent solver** for the whole
//! iterative-deepening run (DESIGN.md §15): the [`IncrementalEncoder`]
//! appends each depth's delta and the solver keeps its learnt clauses,
//! activities and phases across depths. The from-scratch path is retained
//! behind [`SynthesisOptions::with_incremental`]`(false)` as the test
//! oracle (and for refutation logging, which needs a standalone instance).

use crate::driver::IncrementalSolveStats;
use crate::encode::{
    decode_circuit, level_outputs, select_bits, select_width, IncrementalEncoder, LevelSelects,
};
use crate::error::SynthesisError;
use crate::options::{SatSelectEncoding, SynthesisOptions};
use crate::session::{ResourceGovernor, SynthesisSession};
use crate::solutions::SolutionSet;
use qsyn_revlogic::{Circuit, Gate, Spec};
use qsyn_sat::{CnfBuilder, Lit, SolveResult, Solver};

/// SAT-baseline depth oracle; see the module docs.
pub struct SatEngine {
    spec: Spec,
    options: SynthesisOptions,
    gates: Vec<Gate>,
    sbits: u32,
    governor: ResourceGovernor,
    /// Size (vars, clauses) of the last generated instance.
    last_instance_size: (u32, usize),
    /// The persistent encoder+solver pair, built lazily on the first depth
    /// query when `options.incremental` is set.
    inc: Option<PersistentSolve>,
}

impl std::fmt::Debug for SatEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SatEngine")
            .field("lines", &self.spec.lines())
            .field("gates", &self.gates.len())
            .finish_non_exhaustive()
    }
}

impl SatEngine {
    /// Prepares an engine for `spec` under `options` with a throwaway
    /// session (see [`new_in`](Self::new_in) for the recycling entry
    /// point).
    pub fn new(spec: &Spec, options: &SynthesisOptions) -> SatEngine {
        SatEngine::new_in(spec, options, &mut SynthesisSession::new())
    }

    /// Prepares an engine inside `session`. The SAT baseline keeps no BDD
    /// state, so the session only contributes its [`ResourceGovernor`]
    /// wiring; the parameter keeps the three engines' construction
    /// uniform.
    pub fn new_in(
        spec: &Spec,
        options: &SynthesisOptions,
        _session: &mut SynthesisSession,
    ) -> SatEngine {
        let gates = options.library.enumerate(spec.lines());
        let sbits = select_bits(gates.len());
        let governor = ResourceGovernor::from_options(options);
        governor.arm();
        SatEngine {
            spec: spec.clone(),
            options: options.clone(),
            gates,
            sbits,
            governor,
            last_instance_size: (0, 0),
            inc: None,
        }
    }

    /// Size `(variables, clauses)` of the most recently generated instance
    /// — grows with `2ⁿ`, unlike the QBF engine's.
    pub fn last_instance_size(&self) -> (u32, usize) {
        self.last_instance_size
    }

    /// Select-variable block width per level under the configured encoding.
    fn select_width(&self) -> u32 {
        select_width(self.options.sat_encoding, self.gates.len())
    }

    /// Builds the row-wise instance for depth `d`.
    pub fn encode(&self, d: u32) -> qsyn_sat::CnfFormula {
        let n = self.spec.lines();
        // Select variables, shared across all rows.
        let width = self.select_width();
        let mut b = CnfBuilder::new(d * width);
        let levels: Vec<LevelSelects> = (0..d)
            .map(|level| {
                let vars = (level * width..(level + 1) * width)
                    .map(|i| b.input(i))
                    .collect();
                LevelSelects::constrain(&mut b, vars, self.gates.len(), self.options.sat_encoding)
            })
            .collect();
        // One copy of the cascade per truth-table row — the exponential
        // part of this encoding.
        for row in 0..self.spec.num_rows() as u32 {
            let spec_row = self.spec.row(row);
            if spec_row.care == 0 {
                continue; // fully unconstrained row adds nothing
            }
            let mut state: Vec<Lit> = (0..n)
                .map(|l| {
                    if (row >> l) & 1 == 1 {
                        b.constant_true()
                    } else {
                        b.constant_false()
                    }
                })
                .collect();
            for sel in &levels {
                state = level_outputs(&mut b, &self.gates, &state, sel);
            }
            for l in 0..n {
                let bit = 1u32 << l;
                if spec_row.care & bit != 0 {
                    let lit = state[l as usize];
                    b.assert_lit(if spec_row.value & bit != 0 { lit } else { !lit });
                }
            }
        }

        b.into_formula()
    }

    /// Decides whether a `d`-gate realization exists.
    ///
    /// Depths must be queried in ascending order on the default
    /// (incremental) path — the driver's iterative deepening does exactly
    /// that; the from-scratch oracle accepts any order.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::BudgetExceeded`] when the conflict budget runs
    /// out; cancellation errors from the governor, which is polled between
    /// conflict chunks *and* inside the solver's propagation loop, so a
    /// long depth is interruptible mid-solve.
    pub fn solve_depth(&mut self, d: u32) -> Result<Option<SolutionSet>, SynthesisError> {
        self.governor.check(d)?;
        if self.options.incremental {
            let inc = self.inc.get_or_insert_with(|| {
                PersistentSolve::new(
                    &self.spec,
                    &self.gates,
                    self.sbits,
                    self.options.sat_encoding,
                )
            });
            let outcome = inc.query(&self.governor, d);
            // Recorded before a budget or cancellation error propagates:
            // the instance was built either way.
            self.last_instance_size = inc.size();
            return match outcome? {
                None => Ok(None),
                Some(circuit) => {
                    debug_assert!(
                        self.spec.is_realized_by(&circuit),
                        "incremental SAT model decodes to a circuit violating the spec"
                    );
                    Ok(Some(SolutionSet::single(circuit)))
                }
            };
        }
        let formula = self.encode(d);
        // Debug builds re-check the generated instance against the CNF
        // well-formedness invariants (see `qsyn_audit`).
        #[cfg(debug_assertions)]
        if let Err(e) = qsyn_audit::formula_audit::audit_cnf(&formula) {
            panic!("row-wise SAT instance for depth {d} failed the formula audit: {e}");
        }
        self.last_instance_size = (formula.num_vars(), formula.len());
        let mut solver = Solver::from_formula(&formula);
        match solve_chunked(&mut solver, &self.governor, d)? {
            SolveResult::Unsat => Ok(None),
            SolveResult::Sat(model) => {
                let circuit = self.decode(d, self.select_width(), &model)?;
                debug_assert!(
                    self.spec.is_realized_by(&circuit),
                    "SAT model decodes to a circuit violating the spec"
                );
                Ok(Some(SolutionSet::single(circuit)))
            }
        }
    }

    /// Reuse counters of the persistent instance (`None` until the first
    /// incremental depth query, or when the from-scratch oracle ran).
    pub fn incremental_stats(&self) -> Option<IncrementalSolveStats> {
        self.inc.as_ref().map(PersistentSolve::stats)
    }

    /// Produces a **checkable refutation** of "a `d`-gate realization
    /// exists": the row-wise instance for depth `d` together with a clausal
    /// proof of its unsatisfiability (verify with
    /// [`qsyn_sat::proof::check_rup`]). Returns `None` when depth `d` is in
    /// fact realizable. Running this for every `d` below a synthesis
    /// result's depth yields a machine-checkable minimality certificate.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::BudgetExceeded`] when the conflict budget runs out.
    pub fn refutation_for_depth(
        &mut self,
        d: u32,
    ) -> Result<Option<(qsyn_sat::CnfFormula, qsyn_sat::proof::Proof)>, SynthesisError> {
        let formula = self.encode(d);
        let mut solver = Solver::from_formula(&formula);
        solver.enable_proof_logging();
        match solve_chunked(&mut solver, &self.governor, d)? {
            SolveResult::Sat(_) => Ok(None),
            SolveResult::Unsat => {
                let proof = solver.take_proof().ok_or(SynthesisError::Internal {
                    what: "proof logging was enabled but the solver produced no proof",
                })?;
                Ok(Some((formula, proof)))
            }
        }
    }

    fn decode(&self, d: u32, select_width: u32, model: &[bool]) -> Result<Circuit, SynthesisError> {
        let n = self.spec.lines();
        let mut c = Circuit::new(n);
        for level in 0..d as usize {
            let base = level * select_width as usize;
            match self.options.sat_encoding {
                SatSelectEncoding::OneHot => {
                    let k = (0..self.gates.len()).find(|&k| model[base + k]).ok_or(
                        SynthesisError::Internal {
                            what: "SAT model selects no gate despite the at-least-one clause",
                        },
                    )?;
                    c.push(self.gates[k]);
                }
                SatSelectEncoding::Binary => {
                    let bits: Vec<bool> =
                        (0..self.sbits as usize).map(|b| model[base + b]).collect();
                    let sub = decode_circuit(n, &self.gates, self.sbits, &bits);
                    for g in sub.gates() {
                        c.push(*g);
                    }
                }
            }
        }
        Ok(c)
    }
}

/// One persistent [`IncrementalEncoder`] + [`Solver`] pair carrying the
/// row-wise instance across an iterative-deepening run, so every depth
/// rides the learnt clauses, activities and saved phases of the ones
/// before it.
struct PersistentSolve {
    encoder: IncrementalEncoder,
    solver: Solver,
    stats: IncrementalSolveStats,
}

impl PersistentSolve {
    fn new(
        spec: &Spec,
        gates: &[Gate],
        sbits: u32,
        encoding: SatSelectEncoding,
    ) -> PersistentSolve {
        PersistentSolve {
            encoder: IncrementalEncoder::new(spec, gates, sbits, encoding),
            solver: Solver::new(0),
            stats: IncrementalSolveStats::default(),
        }
    }

    /// Reuse counters accumulated so far, with the solver's running
    /// search totals.
    fn stats(&self) -> IncrementalSolveStats {
        let totals = self.solver.stats();
        IncrementalSolveStats {
            conflicts: totals.conflicts,
            decisions: totals.decisions,
            propagations: totals.propagations,
            ..self.stats
        }
    }

    /// Size `(variables, clauses)` of the accumulated instance.
    fn size(&self) -> (u32, usize) {
        (self.encoder.num_vars(), self.encoder.num_clauses())
    }

    /// One depth query against the persistent instance: appends depth `d`'s
    /// delta, solves under the depth's activation assumption, and on UNSAT
    /// permanently retires the depth. Returns the decoded circuit on SAT.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::BudgetExceeded`] once the governor's *cumulative*
    /// conflict limit is spent (the budget accounts across depths, not per
    /// call); cancellation/deadline errors from the governor, polled at the
    /// clause-retention point and between conflict chunks.
    fn query(
        &mut self,
        governor: &ResourceGovernor,
        d: u32,
    ) -> Result<Option<Circuit>, SynthesisError> {
        governor.retention_probe(d)?;
        self.stats.depths += 1;
        self.stats.clauses_retained += self.stats.clauses_added;
        self.stats.learnt_reused += self.solver.stats().learnts as u64;
        self.encoder.extend_to(d);
        let act = self.encoder.activate(d);
        #[cfg(debug_assertions)]
        let prior: Vec<Lit> = self
            .encoder
            .activation_lits()
            .into_iter()
            .filter(|&a| a != act)
            .collect();
        let delta = self.encoder.take_delta();
        // Debug builds re-check the delta against the incremental-encoding
        // invariants: range monotonicity, delta freshness, activation
        // discipline (see `qsyn_audit`).
        #[cfg(debug_assertions)]
        if let Err(e) = qsyn_audit::formula_audit::audit_incremental_delta(
            delta.prev_num_vars,
            delta.num_vars,
            delta.clauses,
            Some(act),
            &prior,
        ) {
            panic!("incremental delta for depth {d} failed the formula audit: {e}");
        }
        self.solver.ensure_vars(delta.num_vars);
        for c in delta.clauses {
            self.solver.add_clause(c.lits().iter().copied());
        }
        self.stats.clauses_added += delta.clauses.len() as u64;
        let result = solve_chunked_assuming(&mut self.solver, governor, d, &[act]);
        match result? {
            SolveResult::Unsat => {
                // Depth d is refuted for good: unit-assert ¬a_d so the
                // solver can simplify the dormant constraints away instead
                // of carrying them as live watches.
                self.encoder.retire(d);
                let retire = self.encoder.take_delta();
                for c in retire.clauses {
                    self.solver.add_clause(c.lits().iter().copied());
                }
                self.stats.clauses_added += retire.clauses.len() as u64;
                Ok(None)
            }
            SolveResult::Sat(model) => {
                let circuit = self
                    .encoder
                    .decode(d, &model)
                    .ok_or(SynthesisError::Internal {
                        what: "incremental SAT model selects no gate at some level",
                    })?;
                Ok(Some(circuit))
            }
        }
    }
}

/// First cumulative conflict budget handed to the solver before the token
/// is re-polled; subsequent chunks double.
const FIRST_CONFLICT_CHUNK: u64 = 2_000;

/// Runs the solver to completion under the governor's conflict limit,
/// polling the governor between doubling budget chunks and installing its
/// abort probe inside the solver's propagation loop (so even a single
/// conflict-free chunk is interruptible). The solver keeps its learnt
/// clauses and heuristic state across chunks (its budget is cumulative), so
/// chunking costs nothing beyond the poll itself. Shared with the QBF
/// engine's expansion path.
///
/// # Errors
///
/// See [`solve_chunked_assuming`].
pub(crate) fn solve_chunked(
    solver: &mut Solver,
    governor: &ResourceGovernor,
    d: u32,
) -> Result<SolveResult, SynthesisError> {
    solve_chunked_assuming(solver, governor, d, &[])
}

/// [`solve_chunked`] under assumptions, for the persistent per-depth
/// instance. The solver's conflict budget is an *absolute cumulative*
/// threshold, so the first chunk starts from the conflicts already spent at
/// earlier depths — the governor's limit thereby accounts across the whole
/// deepening run instead of per `Solver`.
///
/// # Errors
///
/// [`SynthesisError::BudgetExceeded`] once the limit's conflicts are spent
/// without an answer; cancellation/deadline errors from the governor.
fn solve_chunked_assuming(
    solver: &mut Solver,
    governor: &ResourceGovernor,
    d: u32,
    assumptions: &[Lit],
) -> Result<SolveResult, SynthesisError> {
    let limit = governor.conflict_limit();
    solver.set_budget_callback(Some(governor.sat_abort_probe()));
    let mut budget = solver
        .stats()
        .conflicts
        .saturating_add(FIRST_CONFLICT_CHUNK)
        .min(limit);
    loop {
        governor.check(d)?;
        solver.set_conflict_budget(budget);
        if let Some(result) = solver.solve_assuming_limited(assumptions) {
            return Ok(result);
        }
        // `None` is either the probe firing (the governor check above
        // reports it next iteration) or the chunk budget running dry.
        if !solver.was_interrupted() && budget >= limit {
            return Err(governor.conflicts_exceeded(d, solver.stats().conflicts));
        }
        budget = budget.saturating_mul(2).min(limit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Engine;
    use qsyn_revlogic::{GateLibrary, LineSet, Permutation};

    fn opts(enc: SatSelectEncoding) -> SynthesisOptions {
        SynthesisOptions::new(GateLibrary::mct(), Engine::Sat).with_sat_encoding(enc)
    }

    #[test]
    fn depth_zero_identity_both_encodings() {
        let id = Spec::from_permutation(&Permutation::identity(2));
        let other = Spec::from_permutation(&Permutation::from_map(2, vec![1, 0, 2, 3]));
        for enc in [SatSelectEncoding::OneHot, SatSelectEncoding::Binary] {
            assert!(SatEngine::new(&id, &opts(enc))
                .solve_depth(0)
                .unwrap()
                .is_some());
            assert!(SatEngine::new(&other, &opts(enc))
                .solve_depth(0)
                .unwrap()
                .is_none());
        }
    }

    #[test]
    fn finds_single_cnot_both_encodings() {
        let spec = Spec::from_permutation(&Permutation::from_fn(2, |v| v ^ ((v & 1) << 1)));
        for enc in [SatSelectEncoding::OneHot, SatSelectEncoding::Binary] {
            let mut e = SatEngine::new(&spec, &opts(enc));
            assert!(e.solve_depth(0).unwrap().is_none(), "{enc:?}");
            let sols = e.solve_depth(1).unwrap().expect("CNOT realizes it");
            assert_eq!(
                sols.circuits()[0].gates()[0],
                Gate::toffoli(LineSet::from_iter([0]), 1),
                "{enc:?}"
            );
        }
    }

    #[test]
    fn encodings_agree_on_unsat_depths() {
        // SWAP needs 3 CNOTs; both encodings must prove 1 and 2 unsat.
        let spec = Spec::from_permutation(&Permutation::from_fn(2, |v| {
            ((v & 1) << 1) | ((v >> 1) & 1)
        }));
        for enc in [SatSelectEncoding::OneHot, SatSelectEncoding::Binary] {
            let mut e = SatEngine::new(&spec, &opts(enc));
            assert!(e.solve_depth(1).unwrap().is_none(), "{enc:?} depth 1");
            assert!(e.solve_depth(2).unwrap().is_none(), "{enc:?} depth 2");
            assert!(e.solve_depth(3).unwrap().is_some(), "{enc:?} depth 3");
        }
    }

    #[test]
    fn instance_grows_with_row_count() {
        // The baseline's defining weakness: clauses scale with 2ⁿ.
        let spec2 = Spec::from_permutation(&Permutation::identity(2));
        let spec3 = Spec::from_permutation(&Permutation::identity(3));
        let mut e2 = SatEngine::new(&spec2, &opts(SatSelectEncoding::OneHot));
        let mut e3 = SatEngine::new(&spec3, &opts(SatSelectEncoding::OneHot));
        let _ = e2.solve_depth(1).unwrap();
        let _ = e3.solve_depth(1).unwrap();
        let (_, c2) = e2.last_instance_size();
        let (_, c3) = e3.last_instance_size();
        // 3 lines has 2× the rows of 2 lines (and more gates): the instance
        // must grow super-linearly.
        assert!(c3 > 2 * c2, "rows don't dominate: {c2} vs {c3}");
    }

    #[test]
    fn instance_size_is_recorded_when_the_budget_runs_out() {
        let spec = Spec::from_permutation(&Permutation::from_map(3, vec![7, 1, 4, 3, 0, 2, 6, 5]));
        let mut e = SatEngine::new(
            &spec,
            &opts(SatSelectEncoding::OneHot).with_conflict_limit(0),
        );
        assert!(matches!(
            e.solve_depth(3),
            Err(SynthesisError::BudgetExceeded { .. })
        ));
        let (vars, clauses) = e.last_instance_size();
        let cold = e.encode(3);
        // The persistent instance is the cold one plus one activation
        // literal guarding the output constraints.
        assert_eq!(vars, cold.num_vars() + 1);
        assert_eq!(clauses, cold.len());
    }

    #[test]
    fn incomplete_spec_skips_unconstrained_rows() {
        let spec = qsyn_revlogic::embedding::Embedding {
            lines: 3,
            input_lines: vec![0, 1],
            constants: vec![(2, false)],
            output_lines: vec![2],
        }
        .embed(|ab| (ab & 1) & (ab >> 1))
        .unwrap();
        let mut e = SatEngine::new(&spec, &opts(SatSelectEncoding::OneHot));
        assert!(e.solve_depth(0).unwrap().is_none());
        let sols = e.solve_depth(1).unwrap().expect("Toffoli suffices");
        assert!(spec.is_realized_by(&sols.circuits()[0]));
    }

    #[test]
    fn cancelled_token_stops_solve_depth() {
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![3, 0, 1, 2]));
        let token = crate::CancelToken::new();
        let mut e = SatEngine::new(
            &spec,
            &opts(SatSelectEncoding::OneHot).with_cancel_token(token.clone()),
        );
        assert!(e.solve_depth(0).unwrap().is_none());
        token.cancel();
        assert_eq!(
            e.solve_depth(1).unwrap_err(),
            SynthesisError::Cancelled { depth: 1 }
        );
    }

    #[test]
    fn conflict_budget_trips_on_tiny_limit() {
        let spec = Spec::from_permutation(&Permutation::from_map(3, vec![7, 1, 4, 3, 0, 2, 6, 5]));
        let mut e = SatEngine::new(
            &spec,
            &opts(SatSelectEncoding::OneHot).with_conflict_limit(1),
        );
        // Some depth in 1..4 must exceed one conflict.
        let tripped = (1..5).any(|d| {
            matches!(
                e.solve_depth(d),
                Err(SynthesisError::BudgetExceeded {
                    resource: crate::Resource::SatConflicts,
                    limit: 1,
                    ..
                })
            )
        });
        assert!(tripped);
    }

    #[test]
    fn learnt_clauses_survive_depth_bumps() {
        // The point of the persistent solver: UNSAT refutations at shallow
        // depths leave learnt clauses behind, and a later depth query must
        // start from them instead of an empty clause database.
        let spec = Spec::from_permutation(&Permutation::from_map(3, vec![7, 1, 4, 3, 0, 2, 6, 5]));
        for enc in [SatSelectEncoding::OneHot, SatSelectEncoding::Binary] {
            let mut e = SatEngine::new(&spec, &opts(enc));
            let mut depth = 0;
            while e.solve_depth(depth).unwrap().is_none() {
                depth += 1;
                assert!(depth <= 8, "{enc:?}: runaway deepening");
            }
            let inc = e
                .incremental_stats()
                .expect("default options run the persistent solver");
            assert_eq!(inc.depths, u64::from(depth) + 1, "{enc:?}");
            assert!(inc.clauses_added > 0, "{enc:?}: no delta clauses added");
            assert!(
                inc.clauses_retained > 0,
                "{enc:?}: later depths kept nothing"
            );
            assert!(
                inc.learnt_reused > 0,
                "{enc:?}: no learnt clause survived a depth bump ({inc:?})"
            );
        }
    }

    #[test]
    fn from_scratch_oracle_skips_the_persistent_solver() {
        let spec = Spec::from_permutation(&Permutation::from_fn(2, |v| v ^ ((v & 1) << 1)));
        let mut e = SatEngine::new(
            &spec,
            &opts(SatSelectEncoding::OneHot).with_incremental(false),
        );
        assert!(e.solve_depth(0).unwrap().is_none());
        assert!(e.solve_depth(1).unwrap().is_some());
        assert!(e.incremental_stats().is_none());
    }
}
