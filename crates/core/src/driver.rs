//! The per-depth oracle interface, the synthesis result and the depth
//! lower bound.
//!
//! Figure 1 of the paper poses *"is there a network with `d` gates
//! realizing `f`?"* to an engine for rising `d`; the first SAT answer is
//! minimal by construction. [`DepthSolver`] is that question's interface,
//! implemented by the three engines. The loop asking it lives in
//! [`crate::permuted`]: plain synthesis ([`crate::synthesize_in`]) is the
//! output-permutation search restricted to the spec's own labeling.

use crate::bdd_engine::BddEngine;
use crate::error::SynthesisError;
use crate::options::SynthesisOptions;
use crate::qbf_engine::QbfEngine;
use crate::sat_engine::SatEngine;
use crate::solutions::SolutionSet;
use qsyn_revlogic::Spec;
use std::time::Duration;

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

    /// Persistent-solver reuse counters, for engines that rode one
    /// incremental SAT instance across depths (`None` otherwise, including
    /// engines whose incremental path was disabled via
    /// [`SynthesisOptions::with_incremental`]).
    fn incremental_stats(&self) -> Option<IncrementalSolveStats> {
        None
    }
}

counter_set! {
    /// How much work a persistent per-depth SAT instance reused across an
    /// iterative-deepening run (DESIGN.md §15). All counters are
    /// deterministic for a fixed spec/options, so trajectory gates may
    /// compare them exactly. Merging sums them, for folding several
    /// engines' runs (the pruned permutation search keeps one persistent
    /// instance per probe class) into one report.
    pub struct IncrementalSolveStats {
        /// Depth queries answered by the persistent solver.
        sum depths: u64,
        /// Delta clauses fed to the solver across the run.
        sum clauses_added: u64,
        /// Clauses already loaded when a depth query began, summed over
        /// queries — the re-encoding work the persistent instance avoided.
        sum clauses_retained: u64,
        /// Learnt clauses alive when a depth query began, summed over
        /// queries — evidence that depth `d` reuses depth `d−1`'s
        /// inferences.
        sum learnt_reused: u64,
        /// Total solver conflicts across the run (the conflict budget
        /// accounts across depths for a persistent solver, not per call).
        sum conflicts: u64,
        /// Total solver decisions across the run.
        sum decisions: u64,
        /// Total literals the solver propagated across the run.
        sum propagations: u64,
    }
}

impl DepthSolver for BddEngine {
    fn name(&self) -> &'static str {
        "BDD"
    }

    fn solve_depth(&mut self, d: u32) -> Result<Option<SolutionSet>, SynthesisError> {
        BddEngine::solve_depth(self, d)
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

    /// Assembles a result from a live engine's outcome — used by the
    /// deepening loop in [`crate::permuted`], the one place a live result
    /// is made.
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

    /// Wall-clock time spent on each queried depth, in order: deepening
    /// may start at a lower bound, so entry `i` is depth
    /// `depth + 1 − len + i`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize, synthesize_in, Engine, SynthesisSession};
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

    #[test]
    fn synthesize_in_deepens_from_zero_and_stops_at_the_first_sat() {
        // SWAP is minimal at 3 gates. With the lower bound off, the loop
        // asks depths 0, 1, 2 and 3 of its one labeling, in order, and
        // asks nothing past the first SAT although the cap allows 10.
        let spec = Spec::from_permutation(&Permutation::from_fn(2, |v| ((v & 1) << 1) | (v >> 1)));
        for engine in [Engine::Bdd, Engine::Sat, Engine::Qbf] {
            let options = SynthesisOptions::new(GateLibrary::mct(), engine)
                .with_max_depth(10)
                .with_lower_bound_start(false);
            let mut session = SynthesisSession::new();
            let r = synthesize_in(&spec, &options, &mut session).unwrap();
            assert_eq!(r.depth(), 3, "{engine}");
            assert_eq!(r.depth_times().len(), 4, "{engine}");
            let search = session.stats().search;
            assert_eq!(search.permutations, 1, "{engine}");
            assert_eq!(search.classes, 1, "{engine}");
            assert_eq!(search.engines_built, 1, "{engine}");
            assert_eq!(search.probes_run, 4, "{engine}");
            assert_eq!(search.depth_floor_skips, 0, "{engine}");
            match engine {
                // The cascade grows one level per depth: F_1, F_2, F_3.
                Engine::Bdd => assert_eq!(search.levels_built, 3),
                // The persistent solver answered every depth query.
                Engine::Sat => assert_eq!(r.incremental_stats().unwrap().depths, 4),
                Engine::Qbf => assert!(r.incremental_stats().is_none()),
            }
        }
    }

    #[test]
    fn depth_limit_is_reached_at_the_cap_from_zero() {
        // Every depth 0..=2 is UNSAT for SWAP: deepening from 0, the loop
        // asks up to the cap, refuses it, and reports the cap it hit.
        let spec = Spec::from_permutation(&Permutation::from_fn(2, |v| ((v & 1) << 1) | (v >> 1)));
        for engine in [Engine::Bdd, Engine::Sat, Engine::Qbf] {
            let options = SynthesisOptions::new(GateLibrary::mct(), engine)
                .with_max_depth(2)
                .with_lower_bound_start(false);
            let err = synthesize(&spec, &options).unwrap_err();
            assert_eq!(err, SynthesisError::DepthLimitReached { max_depth: 2 });
            // One more depth of headroom is enough.
            assert_eq!(
                synthesize(&spec, &options.with_max_depth(3))
                    .unwrap()
                    .depth(),
                3
            );
        }
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
