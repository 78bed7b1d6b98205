//! The iterative-deepening synthesis driver (Figure 1 of the paper).
//!
//! Starting from `d = 0`, the per-depth question *"is there a network with
//! `d` gates realizing `f`?"* is posed to the configured engine; `d` is
//! incremented on every UNSAT answer. The first SAT answer is minimal by
//! construction.

use crate::bdd_engine::BddEngine;
use crate::error::SynthesisError;
use crate::options::{Engine, SynthesisOptions};
use crate::qbf_engine::QbfEngine;
use crate::sat_engine::SatEngine;
use crate::session::SynthesisSession;
use crate::solutions::SolutionSet;
use qsyn_revlogic::Spec;
use std::time::{Duration, Instant};

/// Per-depth oracle: the common face of the three engines.
///
/// Depths must be queried in ascending order (the incremental BDD engine
/// and the persistent SAT instance rely on it).
pub trait DepthSolver {
    /// Engine label for reports.
    fn name(&self) -> &'static str;

    /// Decides depth `d`.
    ///
    /// # Errors
    ///
    /// [`SynthesisError`] when a resource budget is exhausted.
    fn solve_depth(&mut self, d: u32) -> Result<Option<SolutionSet>, SynthesisError>;

    /// BDD manager counters, for engines backed by one (`None` otherwise).
    fn manager_stats(&self) -> Option<qsyn_bdd::ManagerStats> {
        None
    }

    /// Persistent-solver reuse counters, for engines that rode one
    /// incremental SAT instance across depths (`None` otherwise, including
    /// engines whose incremental path was disabled via
    /// [`SynthesisOptions::with_incremental`]).
    fn incremental_stats(&self) -> Option<IncrementalSolveStats> {
        None
    }
}

/// How much work a persistent per-depth SAT instance reused across an
/// iterative-deepening run (DESIGN.md §15). All counters are deterministic
/// for a fixed spec/options, so trajectory gates may compare them exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalSolveStats {
    /// Depth queries answered by the persistent solver.
    pub depths: u64,
    /// Delta clauses fed to the solver across the run.
    pub clauses_added: u64,
    /// Clauses already loaded when a depth query began, summed over
    /// queries — the re-encoding work the persistent instance avoided.
    pub clauses_retained: u64,
    /// Learnt clauses alive when a depth query began, summed over queries
    /// — evidence that depth `d` reuses depth `d−1`'s inferences.
    pub learnt_reused: u64,
    /// Total solver conflicts across the run (the conflict budget accounts
    /// across depths for a persistent solver, not per call).
    pub conflicts: u64,
    /// Total solver decisions across the run.
    pub decisions: u64,
    /// Total literals the solver propagated across the run.
    pub propagations: u64,
}

impl IncrementalSolveStats {
    /// Field-wise accumulation, for folding several engines' runs (the
    /// pruned permutation search keeps one persistent instance per probe
    /// class) into one report.
    pub fn absorb(&mut self, other: &IncrementalSolveStats) {
        self.depths += other.depths;
        self.clauses_added += other.clauses_added;
        self.clauses_retained += other.clauses_retained;
        self.learnt_reused += other.learnt_reused;
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
    }
}

impl DepthSolver for BddEngine {
    fn name(&self) -> &'static str {
        "BDD"
    }

    fn solve_depth(&mut self, d: u32) -> Result<Option<SolutionSet>, SynthesisError> {
        BddEngine::solve_depth(self, d)
    }

    fn manager_stats(&self) -> Option<qsyn_bdd::ManagerStats> {
        Some(BddEngine::manager_stats(self))
    }
}

impl DepthSolver for QbfEngine {
    fn name(&self) -> &'static str {
        "QBF"
    }

    fn solve_depth(&mut self, d: u32) -> Result<Option<SolutionSet>, SynthesisError> {
        QbfEngine::solve_depth(self, d)
    }
}

impl DepthSolver for SatEngine {
    fn name(&self) -> &'static str {
        "SAT"
    }

    fn solve_depth(&mut self, d: u32) -> Result<Option<SolutionSet>, SynthesisError> {
        SatEngine::solve_depth(self, d)
    }

    fn incremental_stats(&self) -> Option<IncrementalSolveStats> {
        SatEngine::incremental_stats(self)
    }
}

/// Result of a successful synthesis run.
#[derive(Clone, Debug)]
pub struct SynthesisResult {
    solutions: SolutionSet,
    depth: u32,
    engine: &'static str,
    depth_times: Vec<Duration>,
    total_time: Duration,
    bdd_stats: Option<qsyn_bdd::ManagerStats>,
    incremental_stats: Option<IncrementalSolveStats>,
}

impl SynthesisResult {
    /// Rebuilds a result from persisted parts (circuit store hits), so a
    /// replayed answer flows through the same reporting paths as a live
    /// one. No engine ran: `depth_times` is empty, `total_time` is zero
    /// and there are no BDD counters — `engine` should name the replay
    /// source (e.g. `"store"`) so reports stay honest about provenance.
    pub fn replayed(solutions: SolutionSet, depth: u32, engine: &'static str) -> SynthesisResult {
        SynthesisResult {
            solutions,
            depth,
            engine,
            depth_times: Vec::new(),
            total_time: Duration::ZERO,
            bdd_stats: None,
            incremental_stats: None,
        }
    }

    /// Assembles a result from a live engine's outcome — used by drivers
    /// (like the pruned permutation search) that run the per-depth loop
    /// themselves instead of going through [`drive`].
    pub(crate) fn from_parts(
        solutions: SolutionSet,
        depth: u32,
        engine: &'static str,
        depth_times: Vec<Duration>,
        total_time: Duration,
        bdd_stats: Option<qsyn_bdd::ManagerStats>,
        incremental_stats: Option<IncrementalSolveStats>,
    ) -> SynthesisResult {
        SynthesisResult {
            solutions,
            depth,
            engine,
            depth_times,
            total_time,
            bdd_stats,
            incremental_stats,
        }
    }

    /// Minimal number of gates (the `D` column of the paper's tables).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// All minimal realizations found (all of them for the BDD engine, one
    /// for QBF/SAT).
    pub fn solutions(&self) -> &SolutionSet {
        &self.solutions
    }

    /// Label of the engine that produced the result.
    pub fn engine(&self) -> &'static str {
        self.engine
    }

    /// Wall-clock time spent on each depth `0..=depth`.
    pub fn depth_times(&self) -> &[Duration] {
        &self.depth_times
    }

    /// Total wall-clock time (the `TIME` column of the paper's tables).
    pub fn total_time(&self) -> Duration {
        self.total_time
    }

    /// BDD manager counters at the end of the run — live/peak nodes, GC
    /// activity, computed-table hit rate. `None` for engines not backed by
    /// a BDD manager (SAT, QBF, mocks).
    pub fn bdd_stats(&self) -> Option<qsyn_bdd::ManagerStats> {
        self.bdd_stats
    }

    /// Persistent SAT solver counters of the run — depth queries,
    /// conflicts, decisions, propagations, learnt reuse — summed over every
    /// probe engine of an output-permutation search. `None` when no engine
    /// kept a persistent instance (BDD, QBF, the from-scratch SAT oracle)
    /// and for replayed results.
    pub fn incremental_stats(&self) -> Option<IncrementalSolveStats> {
        self.incremental_stats
    }
}

/// A sound lower bound on the minimal gate count: every output line whose
/// function differs from its input projection must be targeted by at least
/// one gate, and a gate of the library targets at most `t` lines (1 for
/// MCT, 2 once Fredkin or Peres gates are allowed). Hence
/// `D ≥ ⌈differing / t⌉`. Iterative deepening may start there instead of
/// at 0 without losing minimality.
pub fn depth_lower_bound(spec: &Spec, options: &SynthesisOptions) -> u32 {
    let n = spec.lines();
    let mut differing = 0u32;
    for l in 0..n {
        let bit = 1u32 << l;
        let differs = (0..spec.num_rows() as u32).any(|row| {
            let r = spec.row(row);
            r.care & bit != 0 && (r.value ^ row) & bit != 0
        });
        if differs {
            differing += 1;
        }
    }
    let max_targets = if options.library.has_mcf() || options.library.has_peres() {
        2
    } else {
        1
    };
    differing.div_ceil(max_targets)
}

/// Runs the full iterative-deepening flow of Figure 1 with the engine named
/// in `options`.
///
/// # Errors
///
/// * [`SynthesisError::SpecTooLarge`] for specifications beyond 8 lines
///   (the universal-gate table alone would be astronomically large).
/// * [`SynthesisError::DepthLimitReached`] when `options.max_depth` is
///   exhausted — every depth up to the cap is then *proven* unrealizable.
/// * [`SynthesisError::BudgetExceeded`] when any resource budget (wall
///   clock, BDD nodes, SAT conflicts) runs out.
/// * [`SynthesisError::Cancelled`] when the options'
///   [`CancelToken`](crate::CancelToken) is cancelled by a supervisor.
pub fn synthesize(
    spec: &Spec,
    options: &SynthesisOptions,
) -> Result<SynthesisResult, SynthesisError> {
    synthesize_in(spec, options, &mut SynthesisSession::new())
}

/// [`synthesize`], but borrowing a caller-owned [`SynthesisSession`] so the
/// BDD manager pool (and its warmed unique/computed tables) survives across
/// jobs. Batch drivers and portfolio workers call this once per job on a
/// long-lived session; `synthesize` itself is the one-shot special case.
///
/// # Errors
///
/// See [`synthesize`].
pub fn synthesize_in(
    spec: &Spec,
    options: &SynthesisOptions,
    session: &mut SynthesisSession,
) -> Result<SynthesisResult, SynthesisError> {
    session.begin_job();
    match options.engine {
        Engine::Bdd => {
            let mut engine = BddEngine::new_in(spec, options, session);
            drive(spec, options, &mut engine)
        }
        Engine::Qbf => {
            let mut engine = QbfEngine::new_in(spec, options, session);
            drive(spec, options, &mut engine)
        }
        Engine::Sat => {
            let mut engine = SatEngine::new_in(spec, options, session);
            let result = drive(spec, options, &mut engine);
            session.note_incremental(DepthSolver::incremental_stats(&engine));
            result
        }
    }
}

/// Drives any [`DepthSolver`] through the iterative checks.
///
/// # Errors
///
/// See [`synthesize`].
pub fn drive<S: DepthSolver>(
    spec: &Spec,
    options: &SynthesisOptions,
    engine: &mut S,
) -> Result<SynthesisResult, SynthesisError> {
    if spec.lines() > 8 {
        return Err(SynthesisError::SpecTooLarge {
            lines: spec.lines(),
        });
    }
    let start = Instant::now();
    // The wall-clock deadline is armed by the engine's `ResourceGovernor`
    // at construction (`ResourceGovernor::arm`), so it is enforced inside
    // the per-depth loops. Callers driving a bare `DepthSolver` that never
    // built a governor arm one here so `drive` honours the budget too.
    let governor = crate::session::ResourceGovernor::from_options(options);
    governor.arm();
    let mut depth_times = Vec::new();
    let first_depth = if options.start_at_lower_bound {
        depth_lower_bound(spec, options).min(options.max_depth)
    } else {
        0
    };
    for d in first_depth..=options.max_depth {
        governor.check(d)?;
        let depth_start = Instant::now();
        let outcome = engine.solve_depth(d)?;
        depth_times.push(depth_start.elapsed());
        if let Some(solutions) = outcome {
            // Debug builds lint every materialized circuit: line bounds,
            // control/target disjointness, library membership and (for
            // small line counts) reversibility — see `qsyn_audit`.
            #[cfg(debug_assertions)]
            for c in solutions.circuits() {
                if let Err(e) = qsyn_audit::circuit_audit::audit_circuit(c, Some(&options.library))
                {
                    panic!("synthesized circuit at depth {d} failed its audit: {e}");
                }
            }
            return Ok(SynthesisResult {
                solutions,
                depth: d,
                engine: engine.name(),
                depth_times,
                total_time: start.elapsed(),
                bdd_stats: engine.manager_stats(),
                incremental_stats: engine.incremental_stats(),
            });
        }
    }
    Err(SynthesisError::DepthLimitReached {
        max_depth: options.max_depth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_revlogic::{GateLibrary, Permutation};
    use std::time::Duration;

    #[test]
    fn driver_finds_minimal_depth() {
        // SWAP needs exactly 3 MCT gates. Both output lines differ from
        // their inputs, so the lower bound lets the driver start at d = 2.
        let spec = Spec::from_permutation(&Permutation::from_fn(2, |v| ((v & 1) << 1) | (v >> 1)));
        let options = SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd);
        assert_eq!(depth_lower_bound(&spec, &options), 2);
        let r = synthesize(&spec, &options).unwrap();
        assert_eq!(r.depth(), 3);
        assert_eq!(r.engine(), "BDD");
        assert_eq!(r.depth_times().len(), 2); // depths 2..=3
        assert!(r.total_time() >= *r.depth_times().last().unwrap());
        // With the bound disabled, every depth from 0 is queried.
        let r0 = synthesize(&spec, &options.clone().with_lower_bound_start(false)).unwrap();
        assert_eq!(r0.depth(), 3);
        assert_eq!(r0.depth_times().len(), 4);
    }

    #[test]
    fn lower_bound_accounts_for_two_target_gates_and_dont_cares() {
        // Fredkin/Peres libraries target two lines per gate.
        let spec = Spec::from_permutation(&Permutation::from_fn(3, |v| {
            // rotate all three lines: every line differs.
            ((v << 1) | (v >> 2)) & 0b111
        }));
        let mct = SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd);
        let all = SynthesisOptions::new(GateLibrary::all(), Engine::Bdd);
        assert_eq!(depth_lower_bound(&spec, &mct), 3);
        assert_eq!(depth_lower_bound(&spec, &all), 2);
        // Don't-care outputs never count as differing.
        let dc = qsyn_revlogic::benchmarks::random_incomplete_spec(3, 1, 0);
        assert_eq!(depth_lower_bound(&dc, &mct), 0);
    }

    #[test]
    fn depth_limit_is_an_error() {
        let spec = Spec::from_permutation(&Permutation::from_fn(2, |v| ((v & 1) << 1) | (v >> 1)));
        let err = synthesize(
            &spec,
            &SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd).with_max_depth(2),
        )
        .unwrap_err();
        assert_eq!(err, SynthesisError::DepthLimitReached { max_depth: 2 });
    }

    #[test]
    fn zero_time_budget_trips() {
        let spec = Spec::from_permutation(&Permutation::identity(2));
        let err = synthesize(
            &spec,
            &SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd)
                .with_time_budget(Duration::ZERO),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SynthesisError::BudgetExceeded {
                resource: crate::Resource::WallClock,
                ..
            }
        ));
    }

    #[test]
    fn oversized_spec_is_rejected() {
        let spec = Spec::from_permutation(&Permutation::identity(9));
        let err = synthesize(
            &spec,
            &SynthesisOptions::new(GateLibrary::mct(), Engine::Bdd),
        )
        .unwrap_err();
        assert_eq!(err, SynthesisError::SpecTooLarge { lines: 9 });
    }

    /// A scripted oracle: answers UNSAT until `sat_at`, then SAT.
    struct MockSolver {
        sat_at: u32,
        calls: Vec<u32>,
    }

    impl DepthSolver for MockSolver {
        fn name(&self) -> &'static str {
            "mock"
        }

        fn solve_depth(&mut self, d: u32) -> Result<Option<SolutionSet>, SynthesisError> {
            self.calls.push(d);
            if d >= self.sat_at {
                let c = qsyn_revlogic::Circuit::from_gates(
                    1,
                    std::iter::repeat_n(qsyn_revlogic::Gate::not(0), d as usize),
                );
                Ok(Some(SolutionSet::single(c)))
            } else {
                Ok(None)
            }
        }
    }

    #[test]
    fn drive_queries_depths_in_order_and_stops_at_first_sat() {
        let spec = Spec::from_permutation(&qsyn_revlogic::Permutation::identity(1));
        let mut mock = MockSolver {
            sat_at: 4,
            calls: Vec::new(),
        };
        let options =
            SynthesisOptions::new(GateLibrary::mct(), crate::Engine::Bdd).with_max_depth(10);
        let r = drive(&spec, &options, &mut mock).unwrap();
        assert_eq!(r.depth(), 4);
        assert_eq!(r.engine(), "mock");
        assert_eq!(mock.calls, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.depth_times().len(), 5);
    }

    #[test]
    fn drive_respects_max_depth_with_mock() {
        let spec = Spec::from_permutation(&qsyn_revlogic::Permutation::identity(1));
        let mut mock = MockSolver {
            sat_at: 100,
            calls: Vec::new(),
        };
        let options =
            SynthesisOptions::new(GateLibrary::mct(), crate::Engine::Bdd).with_max_depth(3);
        let err = drive(&spec, &options, &mut mock).unwrap_err();
        assert_eq!(err, SynthesisError::DepthLimitReached { max_depth: 3 });
        assert_eq!(mock.calls, vec![0, 1, 2, 3]);
    }

    #[test]
    fn all_three_engines_agree_on_minimal_depth() {
        let spec = Spec::from_permutation(&Permutation::from_map(2, vec![3, 0, 1, 2]));
        let mut depths = Vec::new();
        for engine in [Engine::Bdd, Engine::Qbf, Engine::Sat] {
            let r = synthesize(&spec, &SynthesisOptions::new(GateLibrary::mct(), engine)).unwrap();
            assert!(spec.is_realized_by(&r.solutions().circuits()[0]));
            depths.push(r.depth());
        }
        assert_eq!(depths[0], depths[1]);
        assert_eq!(depths[0], depths[2]);
    }
}
